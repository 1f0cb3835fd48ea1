package oracle

import (
	"path/filepath"
	"reflect"
	"testing"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/oracle/gen"
	"spamer/internal/workloads"
	"spamer/internal/workloads/dag"
)

func hasViolation(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestFaultDropCaughtByConservation is the oracle's end-to-end
// self-test: an intentionally injected message drop (the Nth stash
// delivery acknowledged but never filled) must be caught by the
// conservation invariant, the failing case must minimize to a smaller
// one that still fails, and the minimized repro must round-trip through
// the campaign's JSON repro file and still reproduce on replay.
func TestFaultDropCaughtByConservation(t *testing.T) {
	cs := gen.Case{Spec: experiments.Spec{
		Benchmark:  "synthetic",
		Shape:      &workloads.Shape{Stages: 4, Messages: 96, Lines: 2, ProdWork: 20, ConsWork: 35},
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgZeroDelay},
		Fault:      &experiments.FaultSpec{DropStash: 5},
	}}

	rep := CheckCase(cs)
	if !rep.Failed() {
		t.Fatal("injected message drop not detected")
	}
	if !hasViolation(rep.Violations, "message-loss") {
		t.Fatalf("conservation invariant missed the drop; got %v", rep.Violations)
	}
	if !hasViolation(rep.Violations, "run-panic") {
		t.Fatalf("lost message should deadlock the run; got %v", rep.Violations)
	}

	min, runs := Minimize(cs)
	if runs < 2 {
		t.Fatalf("Minimize spent %d runs, expected shrink attempts", runs)
	}
	if !min.Failed() || !hasViolation(min.Violations, "message-loss") {
		t.Fatalf("minimized case lost the violation: %v", min.Violations)
	}
	if min.Case.Spec.Shape == nil || min.Case.Spec.Shape.Messages >= cs.Spec.Shape.Messages {
		t.Fatalf("case did not shrink: %+v", min.Case.Spec.Shape)
	}

	// The campaign repro workflow: persist, reload, replay.
	path, err := writeRepro(t.TempDir(), 42, CaseFailure{Case: min.Case, Original: cs, Violations: min.Violations})
	if err != nil {
		t.Fatal(err)
	}
	fail, err := ReadReproFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := CheckCase(fail.Case)
	if !hasViolation(replayed.Violations, "message-loss") {
		t.Fatalf("reloaded repro no longer reproduces: %v", replayed.Violations)
	}
}

// TestFaultCorruptCaughtOnDAG is the DAG-era end-to-end self-test: a
// seeded in-flight payload corruption (the Nth stash delivery filled
// with flipped bits, metadata intact — the run completes normally)
// must be caught by the payload-integrity invariant on a diamond DAG,
// and Minimize must peel the topology — stages, edges, and replica
// pools — down to a strictly smaller case that still exhibits the
// corruption, surviving the repro-file round trip.
func TestFaultCorruptCaughtOnDAG(t *testing.T) {
	topo := &dag.Spec{
		Name: "corrupt",
		Stages: []dag.Stage{
			{Name: "src", Replicas: 2, Messages: 24, Work: &dag.Dist{Mean: 10}},
			{Name: "mid", Replicas: 2, Work: &dag.Dist{Mean: 15}},
			{Name: "side", Replicas: 1, Work: &dag.Dist{Mean: 5}},
			{Name: "sink", Replicas: 1},
		},
		Edges: []dag.Edge{
			{From: "src", To: "mid", Policy: dag.PolicyPair},
			{From: "src", To: "side", Policy: dag.PolicyShard},
			{From: "mid", To: "sink", Policy: dag.PolicyShard},
			{From: "side", To: "sink", Policy: dag.PolicyPair},
		},
	}
	cs := gen.Case{Spec: experiments.Spec{
		Benchmark:  "synthetic",
		Shape:      &workloads.Shape{DAG: topo},
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgZeroDelay},
		Fault:      &experiments.FaultSpec{CorruptStash: 7},
	}}

	rep := CheckCase(cs)
	if !rep.Failed() {
		t.Fatal("injected payload corruption not detected")
	}
	if !hasViolation(rep.Violations, "payload-corruption") {
		t.Fatalf("payload-integrity invariant missed the corruption; got %v", rep.Violations)
	}

	min, runs := Minimize(cs)
	if runs < 2 {
		t.Fatalf("Minimize spent %d runs, expected shrink attempts", runs)
	}
	if !min.Failed() || !hasViolation(min.Violations, "payload-corruption") {
		t.Fatalf("minimized case lost the violation: %v", min.Violations)
	}
	md := min.Case.Spec.Shape.DAG
	if md == nil {
		t.Fatal("minimized case lost its DAG")
	}
	if err := md.Validate(); err != nil {
		t.Fatalf("minimized DAG is invalid (shrinker must filter candidates): %v", err)
	}
	if len(md.Stages) >= len(topo.Stages) && len(md.Edges) >= len(topo.Edges) && md.Threads() >= topo.Threads() {
		t.Fatalf("shrinker peeled nothing: %d stages, %d edges, %d threads", len(md.Stages), len(md.Edges), md.Threads())
	}

	// The campaign repro workflow: persist, reload, replay.
	path, err := writeRepro(t.TempDir(), 7, CaseFailure{Case: min.Case, Original: cs, Violations: min.Violations})
	if err != nil {
		t.Fatal(err)
	}
	fail, err := ReadReproFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !hasViolation(CheckCase(fail.Case).Violations, "payload-corruption") {
		t.Fatal("reloaded repro no longer reproduces")
	}
}

// TestDAGCaseGen pins the DAG case family's generator contract: seeded
// determinism, validity of every drawn case, and coverage of both static
// graphs and graphs with a dynamic shared drain, with eviction pressure
// armed on some of them.
func TestDAGCaseGen(t *testing.T) {
	a := gen.New(9).DAGCase()
	b := gen.New(9).DAGCase()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different DAG cases:\n%+v\n%+v", a, b)
	}
	var drains, static, evicted int
	for seed := uint64(0); seed < 40; seed++ {
		cs := gen.New(seed).DAGCase()
		if err := cs.Spec.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid case: %v", seed, err)
		}
		if cs.Spec.Shape == nil || cs.Spec.Shape.DAG == nil {
			t.Fatalf("seed %d: DAGCase without a DAG", seed)
		}
		st := cs.Spec.Shape.DAG.Stages
		if st[len(st)-1].Name == "drain" {
			drains++
		} else {
			static++
		}
		if cs.EvictEvery > 0 {
			evicted++
		}
	}
	if drains == 0 || static == 0 || evicted == 0 {
		t.Fatalf("generator mix too narrow: %d drain, %d static, %d evicted DAG cases", drains, static, evicted)
	}
}

// TestCampaignClean pins the healthy-simulator contract: a randomized
// campaign over shapes, benchmarks, and knobs yields zero violations
// (the make verify-oracle gate, in miniature).
func TestCampaignClean(t *testing.T) {
	res, err := Campaign(CampaignOptions{Seed: 0xa5a5, N: 12, ReproDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("campaign failures: %+v", res.Failures)
	}
	if res.Cases != 12 || res.Runs < res.Cases {
		t.Fatalf("campaign accounting: %+v", res)
	}
}

// TestEvictionDuringPopRegression pins the fix for a crash the fuzz
// corpus surfaced: the eviction timer firing inside the L1-hit-latency
// sleep of the shared-drain pop hit a "Take on evicted line" panic (Pop
// already re-checked; the drain did not). Fan shapes drain through
// WorkCounter.Take, so sweeping eviction periods over one would crash
// without the re-check.
func TestEvictionDuringPopRegression(t *testing.T) {
	for _, evict := range []uint64{150, 350, 700, 1300} {
		cs := gen.Case{
			Spec: experiments.Spec{
				Benchmark:  "synthetic",
				Shape:      &workloads.Shape{Producers: 3, Consumers: 2, Messages: 60, Lines: 2, ConsWork: 25},
				Algorithms: []string{spamer.AlgBaseline, spamer.AlgZeroDelay},
			},
			EvictEvery: evict,
		}
		if rep := CheckCase(cs); rep.Failed() {
			t.Fatalf("evict_every=%d: %v", evict, rep.Violations)
		}
	}
}

// TestGenDeterminism: identical seeds must yield identical cases (the
// whole repro story depends on it), and the stream must actually vary.
func TestGenDeterminism(t *testing.T) {
	a := gen.New(123).Case()
	b := gen.New(123).Case()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different cases:\n%+v\n%+v", a, b)
	}
	distinct := false
	for seed := uint64(1); seed < 6; seed++ {
		if !reflect.DeepEqual(gen.New(seed).Case(), a) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("generator ignores its seed")
	}
}

// TestCompareDeliveries: the differential comparator must flag missing
// links, diverging counts, and diverging content hashes.
func TestCompareDeliveries(t *testing.T) {
	base := Delivery{Queues: []QueueDelivery{{
		Name:   "q0",
		PerSrc: []SrcDelivery{{Src: 1, Count: 4, Sum: 0x1111}},
	}}}
	if diffs := CompareDeliveries(base, base); len(diffs) != 0 {
		t.Fatalf("self-compare: %v", diffs)
	}
	short := Delivery{Queues: []QueueDelivery{{
		Name:   "q0",
		PerSrc: []SrcDelivery{{Src: 1, Count: 3, Sum: 0x2222}},
	}}}
	if diffs := CompareDeliveries(base, short); len(diffs) == 0 {
		t.Fatal("count/content divergence not reported")
	}
	if diffs := CompareDeliveries(base, Delivery{}); len(diffs) == 0 {
		t.Fatal("missing queue not reported")
	}
}

// TestReplayRoundTripsBareCase: `spamer verify -repro` accepts a bare
// case file too, so hand-written cases are replayable.
func TestReplayRoundTripsBareCase(t *testing.T) {
	cs := gen.New(77).DAGCase()
	path := filepath.Join(t.TempDir(), "case.json")
	if err := cs.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := gen.ReadCaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cs) {
		t.Fatalf("case round-trip:\n%+v\n%+v", got, cs)
	}
}
