package experiments

import (
	"reflect"
	"strings"
	"testing"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/core"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Benchmark: "FIR"}, true},
		{Spec{}, false},
		{Spec{Benchmark: "nope"}, false},
		{Spec{Benchmark: "FIR", Algorithms: []string{"vl", "bogus"}}, false},
		{Spec{Benchmark: "FIR", Algorithms: []string{"history", "dyntuned"}}, true},
		{Spec{Benchmark: "allreduce"}, false}, // extended needs opt-in
		{Spec{Benchmark: "allreduce", Extensions: &Extensions{AllowExtendedWorkloads: true}}, true},
		{Spec{Benchmark: "FIR", Scale: -1}, false},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

// TestSpecAlgorithmsAreCanonicalNames: a spec accepts exactly the VL
// baseline and every delay algorithm under its Name(); "" and aliases
// such as "zero" are refused, so each algorithm keeps one spelling and a
// spec one canonical hash.
func TestSpecAlgorithmsAreCanonicalNames(t *testing.T) {
	want := map[string]bool{spamer.AlgBaseline: true}
	for _, a := range core.ExtendedAlgorithms() {
		want[a.Name()] = true
	}
	if len(want) != 8 {
		t.Fatalf("%d canonical names, want vl and the seven delay algorithms", len(want))
	}
	candidates := []string{"", "bogus", "VL", "zero", "zerodelay", "adaptive", "custom", "tuned+obf"}
	for name := range want {
		candidates = append(candidates, name)
	}
	for _, a := range candidates {
		spec := Spec{Benchmark: "FIR", Algorithms: []string{a}}
		if err := spec.Validate(); (err == nil) != want[a] {
			t.Errorf("algorithm %q: Validate() = %v, want accepted=%v", a, err, want[a])
		}
	}
}

// TestSpecValidateErrors pins the message of every Validate error path,
// so API clients (the service returns these verbatim as 400 bodies) and
// the oracle's invalid-case reporting stay actionable.
func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing benchmark", Spec{}, "missing benchmark"},
		{"unknown benchmark", Spec{Benchmark: "nope"}, `unknown benchmark "nope"`},
		{"unknown algorithm", Spec{Benchmark: "FIR", Algorithms: []string{"bogus"}}, `unknown algorithm "bogus"`},
		{"negative scale", Spec{Benchmark: "FIR", Scale: -1}, "negative scale/repeat"},
		{"negative repeat", Spec{Benchmark: "FIR", Repeat: -2}, "negative scale/repeat"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestReadSpecsRetiredDomains: a spec asking for the removed parallel
// kernel ("domains" > 0, alone or inside a batch) is refused with an
// error that says so, while "domains": 0 and an absent field both read
// as the plain sequential spec.
func TestReadSpecsRetiredDomains(t *testing.T) {
	for _, js := range []string{
		`{"benchmark":"FIR","domains":2}`,
		`[{"benchmark":"FIR"},{"benchmark":"halo","domains":1}]`,
		`{"benchmark":"FIR","domains":-1}`,
	} {
		_, err := ReadSpecs(strings.NewReader(js))
		if err == nil || !strings.Contains(err.Error(), "parallel simulation kernel was removed") {
			t.Errorf("%s: ReadSpecs error = %v, want the removed-kernel error", js, err)
		}
	}
	zero, err := ReadSpecs(strings.NewReader(`{"benchmark":"FIR","domains":0}`))
	if err != nil {
		t.Fatal(err)
	}
	absent, err := ReadSpecs(strings.NewReader(`{"benchmark":"FIR"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, absent) {
		t.Fatalf("domains 0 read as %+v, absent field as %+v", zero, absent)
	}
}

// TestCanonicalFault: an inert fault block canonicalizes away (so it
// cannot split the result cache), while an armed one survives — a
// faulted spec must never share a cache entry with its clean twin.
func TestCanonicalFault(t *testing.T) {
	clean := Spec{Benchmark: "ping-pong"}
	inert := Spec{Benchmark: "ping-pong", Fault: &FaultSpec{}}
	armed := Spec{Benchmark: "ping-pong", Fault: &FaultSpec{DropStash: 3}}
	if inert.Canonical().Fault != nil {
		t.Error("inert fault survived canonicalization")
	}
	if inert.Hash() != clean.Hash() {
		t.Error("inert fault split the cache key")
	}
	if armed.Canonical().Fault == nil || armed.Hash() == clean.Hash() {
		t.Error("armed fault must keep its own cache key")
	}
	c := armed.Canonical()
	c.Fault.DropStash = 99
	if armed.Fault.DropStash != 3 {
		t.Error("Canonical aliased the caller's FaultSpec")
	}
}

func TestSpecRunProducesOutcomes(t *testing.T) {
	s := Spec{Benchmark: "firewall", Algorithms: []string{"vl", "tuned"}, Label: "x"}
	outs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	if outs[0].Algorithm != "vl" || outs[0].SpeedupOverVL != 1.0 {
		t.Fatalf("baseline outcome: %+v", outs[0])
	}
	if outs[1].SpeedupOverVL <= 1.0 {
		t.Fatalf("tuned not faster: %+v", outs[1])
	}
	if outs[1].Label != "x" || outs[1].Messages == 0 {
		t.Fatalf("outcome fields: %+v", outs[1])
	}
}

func TestSpecRepeatChecksDeterminism(t *testing.T) {
	s := Spec{Benchmark: "ping-pong", Algorithms: []string{"tuned"}, Repeat: 2}
	outs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Deterministic == nil || !*outs[0].Deterministic {
		t.Fatalf("determinism flag: %+v", outs[0])
	}
}

func TestSpecOverridesApply(t *testing.T) {
	slow := Spec{Benchmark: "ping-pong", Algorithms: []string{"vl"}, HopLatency: 48}
	fast := Spec{Benchmark: "ping-pong", Algorithms: []string{"vl"}, HopLatency: 6}
	so, _ := slow.Run()
	fo, _ := fast.Run()
	if so[0].Ticks <= fo[0].Ticks {
		t.Fatalf("hop override ineffective: %d vs %d", so[0].Ticks, fo[0].Ticks)
	}
}

func TestSpecTunedOverride(t *testing.T) {
	s := Spec{
		Benchmark:  "FIR",
		Algorithms: []string{"tuned"},
		Tuned:      &config.TunedParams{Zeta: 512, Tau: 48, Delta: 128, Alpha: 1, Beta: 2},
	}
	outs, err := s.Run()
	if err != nil || len(outs) != 1 {
		t.Fatalf("%v %v", outs, err)
	}
	def, _ := (&Spec{Benchmark: "FIR", Algorithms: []string{"tuned"}}).Run()
	if outs[0].Ticks == def[0].Ticks {
		t.Fatal("tuned override produced identical run (suspicious)")
	}
}

func TestReadSpecsSingleAndArray(t *testing.T) {
	single := `{"benchmark":"FIR"}`
	specs, err := ReadSpecs(strings.NewReader(single))
	if err != nil || len(specs) != 1 || specs[0].Benchmark != "FIR" {
		t.Fatalf("%v %v", specs, err)
	}
	array := `[{"benchmark":"FIR"},{"benchmark":"halo","algorithms":["vl"]}]`
	specs, err = ReadSpecs(strings.NewReader(array))
	if err != nil || len(specs) != 2 || specs[1].Benchmark != "halo" {
		t.Fatalf("%v %v", specs, err)
	}
	if _, err = ReadSpecs(strings.NewReader("not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	// Leading whitespace does not change the form a body is read as.
	for _, in := range []string{" \n\t" + single, "\r\n " + array} {
		if specs, err = ReadSpecs(strings.NewReader(in)); err != nil || len(specs) == 0 || specs[0].Benchmark != "FIR" {
			t.Errorf("ReadSpecs(%q) = %v %v", in, specs, err)
		}
	}
	// null and an empty array are empty batches, not errors.
	for _, in := range []string{`null`, `[]`, " \t[]"} {
		if specs, err = ReadSpecs(strings.NewReader(in)); err != nil || len(specs) != 0 {
			t.Errorf("ReadSpecs(%q) = %v %v, want no specs", in, specs, err)
		}
	}
	for _, in := range []string{`[1]`, `{"benchmark":1}`} {
		if specs, err = ReadSpecs(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSpecs(%q) accepted: %+v", in, specs)
		}
	}
}

func TestWriteOutcomesRoundTrip(t *testing.T) {
	var sb strings.Builder
	err := WriteOutcomes(&sb, []Outcome{{Benchmark: "FIR", Algorithm: spamer.AlgTuned, Ticks: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"ticks": 42`) {
		t.Fatalf("json: %s", sb.String())
	}
	// No outcome, as when every run of a batch failed, is still an
	// array.
	for _, outs := range [][]Outcome{nil, {}} {
		sb.Reset()
		if err := WriteOutcomes(&sb, outs); err != nil || sb.String() != "[]\n" {
			t.Fatalf("WriteOutcomes(%#v) = %q, %v; want [] and no error", outs, sb.String(), err)
		}
	}
}

// TestReadSpecsErrorPaths: every malformed input ReadSpecs can see is
// rejected with a spec-JSON error rather than a partial decode.
func TestReadSpecsErrorPaths(t *testing.T) {
	bad := []string{
		``,                          // empty input
		`{`,                         // truncated object
		`[{"benchmark":"FIR"}`,      // truncated array
		`{"benchmark":5}`,           // wrong type for a field
		`{"algorithms":"vl"}`,       // scalar where a list belongs
		`[{"benchmark":"FIR"},"x"]`, // non-object array element
		`42`,                        // bare scalar
	}
	for _, in := range bad {
		if specs, err := ReadSpecs(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSpecs(%q) accepted: %+v", in, specs)
		}
	}
}

// TestReadSpecsThenValidate: inputs that decode fine but describe an
// impossible experiment fail at Validate with a pointed message.
func TestReadSpecsThenValidate(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`{}`, "missing benchmark"},
		{`{"benchmark":"no-such-kernel"}`, `unknown benchmark "no-such-kernel"`},
		{`{"benchmark":"FIR","algorithms":["vl","warp-drive"]}`, `unknown algorithm "warp-drive"`},
		{`{"benchmark":"FIR","scale":-3}`, "negative scale"},
		{`{"benchmark":"FIR","repeat":-1}`, "negative scale/repeat"},
		{`{"benchmark":"allreduce"}`, `unknown benchmark "allreduce"`}, // extended gate closed
	}
	for _, c := range cases {
		specs, err := ReadSpecs(strings.NewReader(c.in))
		if err != nil || len(specs) != 1 {
			t.Fatalf("ReadSpecs(%q): %v %v", c.in, specs, err)
		}
		err = specs[0].Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%q) = %v, want mention of %q", c.in, err, c.want)
		}
	}
}
