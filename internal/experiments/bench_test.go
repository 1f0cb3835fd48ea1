package experiments

import (
	"testing"

	"spamer"
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
		Tuned:      &TunedSpec{Zeta: 512, Tau: 96, Delta: 64, Alpha: 1, Beta: 2},
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
