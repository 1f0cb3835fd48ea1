package experiments

import (
	"context"
	"testing"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/energy"
	"spamer/internal/harness"
)

func TestTableRows(t *testing.T) {
	if rows := Table1Rows(); len(rows) != 5 {
		t.Fatalf("Table1Rows = %d", len(rows))
	}
	rows := Table2Rows()
	if len(rows) != 9 {
		t.Fatalf("Table2Rows = %d", len(rows))
	}
	if rows[0][0] != "Benchmark" {
		t.Fatalf("header = %v", rows[0])
	}
}

func TestFigure11GridShape(t *testing.T) {
	grid := Figure11Grid()
	if len(grid) < 9 {
		t.Fatalf("grid size = %d", len(grid))
	}
	seen := map[config.TunedParams]bool{}
	foundDefault := false
	for _, p := range grid {
		if seen[p] {
			t.Fatalf("duplicate grid point %v", p)
		}
		seen[p] = true
		if p == config.DefaultTuned() {
			foundDefault = true
		}
	}
	if !foundDefault {
		t.Fatal("grid omits the paper's chosen parameter set")
	}
}

func TestFigure11UnknownBenchmark(t *testing.T) {
	if _, err := Figure11Parallel(context.Background(), "nope", 1, harness.Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestMatrixDerivations runs a reduced matrix and checks the derived
// figures are internally consistent.
func TestMatrixDerivations(t *testing.T) {
	m, err := RunMatrixParallel(context.Background(), 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Benchmarks) != 8 {
		t.Fatalf("benchmarks = %d", len(m.Benchmarks))
	}
	for _, b := range m.Benchmarks {
		for _, alg := range m.Configs[1:] {
			if sp := m.Speedup(b, alg); sp <= 0 {
				t.Fatalf("%s/%s speedup = %v", b, alg, sp)
			}
		}
		for _, alg := range m.Configs {
			r := m.Results[b][alg]
			if r.AvgEmptyTicks < 0 || r.AvgNonEmptyTicks < 0 {
				t.Fatalf("fig9 %s/%s: empty %v, non-empty %v", b, alg, r.AvgEmptyTicks, r.AvgNonEmptyTicks)
			}
			if f := r.FailureRate(); f < 0 || f > 1 {
				t.Fatalf("fig10 %s/%s failure = %v", b, alg, f)
			}
			if r.BusUtilization < 0 || r.BusUtilization > 1 {
				t.Fatalf("fig10 %s/%s bus = %v", b, alg, r.BusUtilization)
			}
		}
	}
	for _, alg := range m.Configs[1:] {
		if g := m.Geomean(alg); g < 1.0 {
			t.Fatalf("geomean %s = %v", alg, g)
		}
	}
	power := Section45(m)
	if len(power) != len(m.Configs)-1 {
		t.Fatalf("power for %d algorithms, want %d", len(power), len(m.Configs)-1)
	}
	for alg, p := range power {
		if p.TotalMW <= 0 {
			t.Fatalf("power %s = %+v", alg, p)
		}
	}
	if !energy.Area(0).UnderOnePctSoC {
		t.Fatal("area share exceeds 1% of SoC")
	}
}

// TestInlineStudyPositive: inlining helps at least slightly on every
// benchmark (the §4.3 1.02x result).
func TestInlineStudyPositive(t *testing.T) {
	rows, err := InlineStudyParallel(context.Background(), 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 0.99 {
			t.Errorf("%s: inline speedup %.3f < 0.99", r.Benchmark, r.Speedup)
		}
		if r.Speedup > 1.25 {
			t.Errorf("%s: inline speedup %.3f implausibly high", r.Benchmark, r.Speedup)
		}
	}
}

func TestFigure7BothModes(t *testing.T) {
	_, sumVL, resVL := Figure7(spamer.AlgBaseline)
	if sumVL.OnDemand == 0 || resVL.Pushed != resVL.Popped {
		t.Fatalf("VL: %+v", sumVL)
	}
	_, sumSp, _ := Figure7(spamer.AlgTuned)
	if sumSp.Speculative == 0 {
		t.Fatalf("tuned: %+v", sumSp)
	}
}
