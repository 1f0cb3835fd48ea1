package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// TestRunSpecsParallelMatchesSequential: the pooled runner reproduces
// Spec.Run outcome-for-outcome and error-for-error, at any worker count,
// in spec order, over a batch that mixes named benchmarks, an invalid
// spec, a run that deadlocks, shapes, a DAG, a repeat and a spec that
// names no algorithm.
func TestRunSpecsParallelMatchesSequential(t *testing.T) {
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl", "tuned"}, Label: "a"},
		{Benchmark: "firewall", Algorithms: []string{"tuned", "vl"}, Label: "b"},
		{Benchmark: "no-such-benchmark"},
		{Shape: &workloads.Shape{Stages: 4, Messages: 3, Lines: 1}, Algorithms: []string{"vl"}, Fault: &FaultSpec{DropStash: 5}},
		{Shape: &workloads.Shape{Stages: 2, Messages: 3}, Algorithms: []string{"0delay", "vl", "tuned"}},
		loadScenario(t, "rpc.json"),
		{Benchmark: "ping-pong", Algorithms: []string{"0delay"}, Repeat: 2},
		{Benchmark: "ping-pong"},
	}
	specs[5].Algorithms = []string{"vl", "tuned"}
	want := sequentialResults(t, specs, false)
	if want[2].err == "" || want[3].err == "" {
		t.Fatalf("specs 2 and 3 must fail: %+v", want)
	}
	checkBatch(t, specs, want)
}

// TestRunSpecsParallelRecycledMatchesFresh: recycled storage changes no
// result. A shuffled batch of every Table-2 benchmark under all four
// algorithms, the three scenarios, a non-default srd_entries, two
// routing devices, a repeat and a drop_stash shape that deadlocks runs
// through RunSpecsParallel at 1 and 4 workers, where each run builds on
// storage earlier runs released. Every spec's outcome bytes and error
// string equal those of a Spec.Run of it alone, started once the pools
// are empty, so that its first run builds on fresh storage.
func TestRunSpecsParallelRecycledMatchesFresh(t *testing.T) {
	var specs []Spec
	for _, name := range workloads.Names() {
		specs = append(specs, Spec{Benchmark: name})
	}
	for _, file := range []string{"telemetry.json", "rpc.json", "shuffle.json"} {
		specs = append(specs, loadScenario(t, file))
	}
	specs = append(specs,
		Spec{Benchmark: "firewall", Algorithms: []string{"vl", "tuned"}, SRDEntries: 16},
		Spec{Benchmark: "halo", Algorithms: []string{"0delay", "vl"}, Devices: 2},
		Spec{Benchmark: "incast", Algorithms: []string{"adapt"}, Repeat: 2},
		Spec{Shape: &workloads.Shape{Stages: 4, Messages: 3, Lines: 1}, Algorithms: []string{"vl"}, Fault: &FaultSpec{DropStash: 5}},
	)
	rand.New(rand.NewSource(1)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	want := sequentialResults(t, specs, true)
	failed := 0
	for _, w := range want {
		if w.err != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d specs failed, want only the drop_stash shape: %+v", failed, want)
	}
	checkBatch(t, specs, want)
}

// specResult is one spec's outcomes as JSON and its error string.
type specResult struct{ outs, err string }

// sequentialResults runs each spec alone through Spec.Run, after
// emptying the storage pools first when fresh is set (a sync.Pool drops
// its contents over two collections). A panic is rendered as the error
// RunSpecsParallel reports for it, which names the run's flat index
// among all valid specs' runs; the specs that deadlock name one
// algorithm, so that index is their spec's first.
func sequentialResults(t *testing.T, specs []Spec, fresh bool) []specResult {
	t.Helper()
	var want []specResult
	flat := 0
	for i := range specs {
		s := &specs[i]
		if fresh {
			runtime.GC()
			runtime.GC()
		}
		outs, err, p := specRun(s)
		w := specResult{outs: outcomeJSON(t, outs)}
		switch {
		case p != nil:
			w.err = fmt.Sprintf("harness: run %d (%s/%s): panic: %v", flat, s.Benchmark, s.Algorithms[0], p)
		case err != nil:
			w.err = err.Error()
		}
		if s.Validate() == nil {
			flat += len(s.algorithms())
		}
		want = append(want, w)
	}
	return want
}

// checkBatch runs specs through RunSpecsParallel at 1 and 4 workers and
// compares every spec's result with want.
func checkBatch(t *testing.T, specs []Spec, want []specResult) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: workers})
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: results = %d", workers, len(results))
		}
		for i, r := range results {
			got := specResult{outs: outcomeJSON(t, r.Outcomes)}
			if r.Err != nil {
				got.err = r.Err.Error()
			}
			if got != want[i] {
				t.Errorf("workers=%d spec %d:\n got %+v\nwant %+v", workers, i, got, want[i])
			}
		}
	}
}

// specRun runs s through Spec.Run, returning a panic instead of
// propagating it.
func specRun(s *Spec) (outs []Outcome, err error, p any) {
	defer func() { p = recover() }()
	outs, err = s.Run()
	return outs, err, nil
}

func outcomeJSON(t *testing.T, outs []Outcome) string {
	t.Helper()
	b, err := json.Marshal(outs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunSpecsParallelIsolatesFailures: an invalid spec fails in its
// own slot; its neighbours still run.
func TestRunSpecsParallelIsolatesFailures(t *testing.T) {
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl"}},
		{Benchmark: "no-such-benchmark"},
		{Benchmark: "firewall", Algorithms: []string{"vl"}},
	}
	results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: 2})
	if results[0].Err != nil || len(results[0].Outcomes) != 1 {
		t.Fatalf("spec 0: %+v", results[0])
	}
	if results[1].Err == nil || len(results[1].Outcomes) != 0 {
		t.Fatalf("spec 1 should have failed: %+v", results[1])
	}
	if results[2].Err != nil || len(results[2].Outcomes) != 1 {
		t.Fatalf("spec 2: %+v", results[2])
	}
}
