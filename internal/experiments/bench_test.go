package experiments

import (
	"context"
	"testing"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// BenchmarkSpecRun measures an end-to-end experiment through the spec
// layer — the unit of work every sweep, ablation, tuner pass, and
// `spamer serve` job bottoms out in. It runs the golden FIR configuration
// under the VL baseline and the tuned algorithm, so kernel hot-path
// changes show up here as whole-experiment throughput.
func BenchmarkSpecRun(b *testing.B) {
	spec := Spec{
		Benchmark:  "FIR",
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgTuned},
		Tuned:      &config.TunedParams{Zeta: 512, Tau: 96, Delta: 64, Alpha: 1, Beta: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := spec.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(outs) != 2 {
			b.Fatalf("outcomes = %d, want 2", len(outs))
		}
	}
}

// BenchmarkDAGScenarios measures the DAG runtime end to end: the three
// checked-in scenarios (scenarios/*.json) through Spec.Run under the VL
// baseline and the tuned algorithm, the run a cold DAG job of the
// service costs.
func BenchmarkDAGScenarios(b *testing.B) {
	var specs []Spec
	for _, file := range []string{"telemetry.json", "rpc.json", "shuffle.json"} {
		sp := loadScenario(b, file)
		sp.Algorithms = []string{spamer.AlgBaseline, spamer.AlgTuned}
		specs = append(specs, sp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range specs {
			outs, err := specs[j].Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(outs) != 2 {
				b.Fatalf("outcomes = %d, want 2", len(outs))
			}
		}
	}
}

// BenchmarkRunSpecsParallel measures the batch path that takes input of
// any size (spamer run, a fabric lease, the oracle): 2,000 tiny shape
// specs under the VL baseline and the tuned algorithm, 4,000 runs per
// op. Each run is a short simulation, so the pool's per-run bookkeeping
// shows in B/op and allocs/op beside the simulations' own.
func BenchmarkRunSpecsParallel(b *testing.B) {
	specs := make([]Spec, 2000)
	for i := range specs {
		specs[i] = Spec{
			Shape:      &workloads.Shape{Stages: 2, Messages: 2, Lines: 1},
			Algorithms: []string{spamer.AlgBaseline, spamer.AlgTuned},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range RunSpecsParallel(context.Background(), specs, harness.Options{}) {
			if r.Err != nil || len(r.Outcomes) != 2 {
				b.Fatalf("result = %+v", r)
			}
		}
	}
}
