package energy

import (
	"math"
	"testing"

	"spamer"
	"spamer/internal/vl"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAreaDefaults(t *testing.T) {
	r := Area(0)
	if !almost(r.BufferAreaMM2, 0.156, 1e-9) {
		t.Fatalf("buffer area = %v", r.BufferAreaMM2)
	}
	if !almost(r.TotalAreaMM2, 0.170, 1e-9) {
		t.Fatalf("total area = %v", r.TotalAreaMM2)
	}
	// "within 15% increase from the area of VLRD"
	if r.IncreasePct < 0 || r.IncreasePct > 15.01 {
		t.Fatalf("increase = %v%%", r.IncreasePct)
	}
	// "making SRD cost less than 1% of the overall SoC area"
	if !r.UnderOnePctSoC {
		t.Fatalf("share = %v", r.SRDShareOfSoC)
	}
	if !almost(r.SoCAreaMM2, 18.4, 0.01) {
		t.Fatalf("SoC area = %v", r.SoCAreaMM2)
	}
}

func TestAreaScalesWithEntries(t *testing.T) {
	small := Area(32)
	big := Area(128)
	if small.BufferAreaMM2 >= big.BufferAreaMM2 {
		t.Fatal("buffer area not monotone in entries")
	}
	if !almost(small.BufferAreaMM2*4, big.BufferAreaMM2, 1e-9) {
		t.Fatalf("buffer area not linear: %v vs %v", small.BufferAreaMM2, big.BufferAreaMM2)
	}
}

func TestPowerPaperBounds(t *testing.T) {
	// The paper's worst case: tuned at 5.03x push frequency gives
	// "47.75 mW for SRD power in total at most".
	r := Power(5.03)
	if !almost(r.TotalMW, 47.75, 0.05) {
		t.Fatalf("tuned-bound power = %v", r.TotalMW)
	}
	if !r.WithinPaper {
		t.Fatal("paper bound violated by paper's own factor")
	}
	// "SRD would only contribute to about 0.23% of the total power"
	if !almost(r.ShareOfSoC, 0.0023, 0.0003) {
		t.Fatalf("share = %v", r.ShareOfSoC)
	}
	// Adaptive's 2.45x stays well within bound.
	if p := Power(2.45); !p.WithinPaper {
		t.Fatalf("adaptive power %v exceeds bound", p.TotalMW)
	}
	// Factors below 1 clamp to the baseline.
	if p := Power(0.5); p.DynamicMW != VLRDDynamicMW {
		t.Fatalf("clamped power = %v", p.DynamicMW)
	}
}

func mkResult(ticks, demand, demandMiss, spec, specMiss uint64) spamer.Result {
	return spamer.Result{
		Ticks: ticks,
		Device: vl.Stats{
			DemandPushes: demand, DemandMisses: demandMiss,
			SpecPushes: spec, SpecMisses: specMiss,
		},
	}
}

func TestPushFactor(t *testing.T) {
	base := mkResult(1000, 100, 0, 0, 0)
	run := mkResult(500, 0, 0, 150, 50)
	// run: 150 pushes / 500 ticks = 0.3; base: 100/1000 = 0.1 -> 3x.
	if f := PushFactor(run, base); !almost(f, 3.0, 1e-9) {
		t.Fatalf("factor = %v", f)
	}
	if f := PushFactor(base, base); f != 1 {
		t.Fatalf("self factor = %v", f)
	}
}

func TestFigure11Metrics(t *testing.T) {
	base := mkResult(1000, 100, 0, 0, 0)
	run := mkResult(800, 0, 0, 120, 20)
	if d := DelayNorm(run, base); !almost(d, 0.8, 1e-9) {
		t.Fatalf("delay = %v", d)
	}
	if e := EnergyNorm(run, base); !almost(e, 1.2, 1e-9) {
		t.Fatalf("energy = %v", e)
	}
}

// TestFigure11EndToEnd: on a spec-friendly workload, 0-delay runs faster
// than baseline (delay < 1) and its failed retries cost extra energy
// relative to its own successes.
func TestFigure11EndToEnd(t *testing.T) {
	run1to1 := func(alg string) spamer.Result {
		sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 32})
		q := sys.NewQueue("q")
		const n = 400
		(&spamer.Source{Out: q, N: n, Work: 10}).Spawn(sys, "p")
		(&spamer.Stage{In: q, Lines: 2, N: n, Work: 30}).Spawn(sys, "c")
		return sys.Run()
	}
	base := run1to1(spamer.AlgBaseline)
	zd := run1to1(spamer.AlgZeroDelay)
	if d := DelayNorm(zd, base); d >= 1.0 {
		t.Fatalf("0delay delay-norm = %v, want < 1", d)
	}
	if e := EnergyNorm(zd, base); e < 1.0 {
		t.Fatalf("0delay energy-norm = %v, want >= 1 (failed retries)", e)
	}
}
