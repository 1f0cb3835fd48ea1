package experiments

import (
	"context"
	"encoding/json"
	"fmt"
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

	// want[i] is spec i run alone through Spec.Run. The pool reports a
	// panic under the run's flat index among all valid specs' runs; the
	// spec that deadlocks names one algorithm, so its flat index is its
	// spec's first.
	type result struct{ outs, err string }
	var want []result
	flat := 0
	for i := range specs {
		s := &specs[i]
		outs, err, p := specRun(s)
		w := result{outs: outcomeJSON(t, outs)}
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
	if want[2].err == "" || want[3].err == "" {
		t.Fatalf("specs 2 and 3 must fail: %+v", want)
	}

	for _, workers := range []int{1, 4} {
		results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: workers})
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: results = %d", workers, len(results))
		}
		for i, r := range results {
			got := result{outs: outcomeJSON(t, r.Outcomes)}
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
