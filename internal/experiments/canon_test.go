package experiments

import (
	"strings"
	"testing"

	"spamer"
)

// TestHashFieldOrderIndependent: the same spec serialized with
// different JSON key orders hashes identically.
func TestHashFieldOrderIndependent(t *testing.T) {
	a := `{"benchmark":"FIR","algorithms":["vl","tuned"],"scale":2}`
	b := `{"scale":2,"algorithms":["vl","tuned"],"benchmark":"FIR"}`
	sa, err := ReadSpecs(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ReadSpecs(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := HashSpecs(sa), HashSpecs(sb); ha != hb {
		t.Fatalf("field order changed hash: %s vs %s", ha, hb)
	}
}

// TestHashDefaultInsensitive: omitting a field and spelling out its
// default are the same spec.
func TestHashDefaultInsensitive(t *testing.T) {
	implicit := Spec{Benchmark: "FIR"}
	explicit := Spec{
		Benchmark:  "FIR",
		Algorithms: []string{"vl", "0delay", "adapt", "tuned"},
		Scale:      1,
		HopLatency: 12,
		Channels:   4,
		Devices:    1,
		SRDEntries: 64,
		Repeat:     1,
	}
	if implicit.Hash() != explicit.Hash() {
		t.Fatalf("explicit defaults changed hash:\n%+v\n%+v",
			implicit.Canonical(), explicit.Canonical())
	}
}

// TestHashDistinguishesRealChanges: semantically different specs get
// different hashes.
func TestHashDistinguishesRealChanges(t *testing.T) {
	base := Spec{Benchmark: "FIR"}
	variants := []Spec{
		{Benchmark: "halo"},
		{Benchmark: "FIR", Algorithms: []string{"vl"}},
		{Benchmark: "FIR", Scale: 2},
		{Benchmark: "FIR", HopLatency: 48},
		{Benchmark: "FIR", Label: "x"},
		{Benchmark: "FIR", Repeat: 2},
		{Benchmark: "FIR", NoInline: true},
		{Benchmark: "FIR", SRDEntries: 16},
		{Benchmark: "FIR", Tuned: &TunedSpec{Zeta: 512, Tau: 48, Delta: 128, Alpha: 1, Beta: 2}},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[h] = i
	}
}

// TestCanonicalDropsIrrelevantOverrides: tuned parameters without a
// tuned algorithm, default tuned parameters, and no-op extension blocks
// all vanish.
func TestCanonicalDropsIrrelevantOverrides(t *testing.T) {
	def := defaultTunedSpec()
	cases := []Spec{
		{Benchmark: "FIR", Algorithms: []string{"vl"}, Tuned: &TunedSpec{Zeta: 512}},
		{Benchmark: "FIR", Tuned: &def},
		{Benchmark: "FIR", Extensions: &Extensions{}},
		{Benchmark: "FIR", Extensions: &Extensions{AllowExtendedWorkloads: true}},
	}
	for i, c := range cases {
		got := c.Canonical()
		if got.Tuned != nil || got.Extensions != nil {
			t.Errorf("case %d: override survived canonicalization: %+v", i, got)
		}
	}
	// The extension grant survives when an extended benchmark needs it.
	ext := Spec{Benchmark: "allreduce", Extensions: &Extensions{AllowExtendedWorkloads: true}}
	if ext.Canonical().Extensions == nil {
		t.Fatal("needed extension grant dropped")
	}
	// A meaningful tuned override survives alongside a tuned algorithm.
	tuned := Spec{Benchmark: "FIR", Algorithms: []string{spamer.AlgTuned},
		Tuned: &TunedSpec{Zeta: 512, Tau: 48, Delta: 128, Alpha: 1, Beta: 2}}
	if tuned.Canonical().Tuned == nil {
		t.Fatal("meaningful tuned override dropped")
	}
}

// TestCanonicalDoesNotAliasInput: canonicalization copies slices and
// pointers, so mutating the canonical form leaves the original intact.
func TestCanonicalDoesNotAliasInput(t *testing.T) {
	orig := Spec{Benchmark: "FIR", Algorithms: []string{"vl", spamer.AlgTuned},
		Tuned: &TunedSpec{Zeta: 512, Tau: 48, Delta: 1, Alpha: 1, Beta: 2}}
	c := orig.Canonical()
	c.Algorithms[0] = "mutated"
	c.Tuned.Zeta = 999
	if orig.Algorithms[0] != "vl" || orig.Tuned.Zeta != 512 {
		t.Fatalf("canonical form aliases input: %+v", orig)
	}
}

// TestHashSpecsOrderMatters: a job is an ordered list — permuting it is
// a different job (outcomes are emitted in spec order).
func TestHashSpecsOrderMatters(t *testing.T) {
	a, b := Spec{Benchmark: "FIR"}, Spec{Benchmark: "halo"}
	if HashSpecs([]Spec{a, b}) == HashSpecs([]Spec{b, a}) {
		t.Fatal("permuted spec list hashed identically")
	}
}
