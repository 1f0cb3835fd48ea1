package experiments

import (
	"context"
	"reflect"
	"testing"

	"spamer/internal/harness"
)

// TestRunSpecsParallelMatchesSequential: the pooled runner reproduces
// Spec.Run outcome-for-outcome, at any worker count, in spec order.
func TestRunSpecsParallelMatchesSequential(t *testing.T) {
	specs := []Spec{
		{Benchmark: "ping-pong", Algorithms: []string{"vl", "tuned"}, Label: "a"},
		{Benchmark: "firewall", Algorithms: []string{"tuned", "vl"}, Label: "b"},
		{Benchmark: "ping-pong", Algorithms: []string{"0delay"}, Repeat: 2},
	}
	var want [][]Outcome
	for i := range specs {
		outs, err := specs[i].Run()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, outs)
	}
	for _, workers := range []int{1, 4} {
		results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: workers})
		if len(results) != len(specs) {
			t.Fatalf("workers=%d: results = %d", workers, len(results))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d spec %d: %+v", workers, i, r)
			}
			if !reflect.DeepEqual(r.Outcomes, want[i]) {
				t.Errorf("workers=%d spec %d:\n got %+v\nwant %+v", workers, i, r.Outcomes, want[i])
			}
		}
	}
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
