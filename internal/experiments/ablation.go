package experiments

import "spamer/internal/core"

// Ablation studies for the design choices DESIGN.md calls out, beyond
// the paper's own figures: the wider predictor space §3.5 sketches, the
// sensitivity to SRD sizing, interconnect topology (hop latency and
// channel count — the paper explicitly defers topology), and the cost
// of the §3.6 obfuscation mitigation.

// PredictorRow is one benchmark's speedups across every implemented
// delay algorithm (paper trio + extensions).
type PredictorRow struct {
	Benchmark string
	Speedups  map[string]float64 // algorithm name -> speedup over VL
}

// PredictorNames returns the column order of PredictorStudyParallel rows.
func PredictorNames() []string {
	var out []string
	for _, a := range core.ExtendedAlgorithms() {
		out = append(out, a.Name())
	}
	return out
}

// SweepPoint is one (x, value) sample of a sensitivity sweep.
type SweepPoint struct {
	X       int
	Ticks   uint64
	Speedup float64 // over the VL baseline at the same x
}

// ObfuscationRow compares a benchmark's tuned run with and without the
// §3.6 timing-obfuscation wrapper at a given jitter bound.
type ObfuscationRow struct {
	Benchmark string
	Jitter    uint64
	Plain     uint64  // ticks without obfuscation
	Obf       uint64  // ticks with obfuscation
	Overhead  float64 // Obf/Plain - 1
}
