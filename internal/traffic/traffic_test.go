package traffic

import (
	"math"
	"testing"
)

// drawGaps collects n inter-arrival gaps from a fresh source.
func drawGaps(t *testing.T, sp Spec, endpoint, n int) []float64 {
	t.Helper()
	s := NewSource(sp, endpoint)
	gaps := make([]float64, n)
	prev := uint64(0)
	for i := range gaps {
		at := s.Next()
		if at < prev {
			t.Fatalf("arrival %d at tick %d before previous %d", i, at, prev)
		}
		gaps[i] = float64(at - prev)
		prev = at
	}
	return gaps
}

func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TestSeededDeterminism pins the open-loop contract: same (spec, endpoint)
// gives the bit-identical arrival sequence, different endpoints diverge.
func TestSeededDeterminism(t *testing.T) {
	specs := []Spec{
		{Process: Poisson, Seed: 42, MeanGap: 100},
		{Process: MMPP, Seed: 42, MeanGap: 100, Users: 8},
		{Process: Pareto, Seed: 42, MeanGap: 100, Alpha: 1.7},
		{Process: Poisson, Seed: 7, MeanGap: 50, StormEvery: 1000, StormBurst: 5},
		{Process: Poisson, Seed: 7, MeanGap: 50, RampPeriod: 5000, RampPeak: 6},
	}
	for _, sp := range specs {
		a, b := NewSource(sp, 3), NewSource(sp, 3)
		other := NewSource(sp, 4)
		diverged := false
		for i := 0; i < 10000; i++ {
			x, y := a.Next(), b.Next()
			if x != y {
				t.Fatalf("%s: arrival %d differs: %d vs %d", sp.Name(), i, x, y)
			}
			if other.Next() != x {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("%s: endpoints 3 and 4 produced identical streams", sp.Name())
		}
	}
}

// TestEmpiricalRates checks each generator's sample mean against the
// analytic mean within tolerance.
func TestEmpiricalRates(t *testing.T) {
	const n = 200000
	cases := []struct {
		sp  Spec
		tol float64
	}{
		{Spec{Process: Poisson, Seed: 1, MeanGap: 100}, 0.05},
		{Spec{Process: Poisson, Seed: 2, MeanGap: 400, Users: 16}, 0.05},
		{Spec{Process: MMPP, Seed: 3, MeanGap: 200, BurstyGap: 20, MeanDwell: 50}, 0.15},
		{Spec{Process: Pareto, Seed: 4, MeanGap: 100, Alpha: 1.8}, 0.15},
		{Spec{Process: Pareto, Seed: 5, MeanGap: 50, Alpha: 2.5, MaxGap: 5000}, 0.15},
	}
	for _, tc := range cases {
		gaps := drawGaps(t, tc.sp, 0, n)
		got, want := meanOf(gaps), tc.sp.MeanGapTicks()
		if math.Abs(got-want)/want > tc.tol {
			t.Errorf("%s mean_gap=%d: empirical mean %.2f, analytic %.2f (tol %.0f%%)",
				tc.sp.Name(), tc.sp.MeanGap, got, want, tc.tol*100)
		}
	}
}

// TestUsersScaling pins that Users divides the effective mean gap: one
// endpoint standing in for a population arrives proportionally faster.
func TestUsersScaling(t *testing.T) {
	base := meanOf(drawGaps(t, Spec{Seed: 11, MeanGap: 1000}, 0, 100000))
	scaled := meanOf(drawGaps(t, Spec{Seed: 11, MeanGap: 1000, Users: 10}, 0, 100000))
	ratio := base / scaled
	if ratio < 8 || ratio > 12 {
		t.Fatalf("Users=10 should speed arrivals ~10x, got ratio %.2f", ratio)
	}
}

// TestStormOverlay pins that every storm epoch delivers exactly
// StormBurst same-tick arrivals merged in order with the base stream.
func TestStormOverlay(t *testing.T) {
	sp := Spec{Process: Poisson, Seed: 6, MeanGap: 300, StormEvery: 2000, StormBurst: 7}
	s := NewSource(sp, 0)
	atEpoch := map[uint64]int{}
	prev := uint64(0)
	for i := 0; i < 20000; i++ {
		at := s.Next()
		if at < prev {
			t.Fatalf("arrival %d at %d before %d", i, at, prev)
		}
		prev = at
		if at%sp.StormEvery == 0 && at > 0 {
			atEpoch[at]++
		}
	}
	checked := 0
	for epoch := uint64(2000); epoch <= 20*2000 && epoch < prev; epoch += 2000 {
		if atEpoch[epoch] < sp.StormBurst {
			t.Fatalf("epoch %d got %d arrivals, want >= %d", epoch, atEpoch[epoch], sp.StormBurst)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no storm epochs inside the sampled window")
	}
}

// TestRampModulation pins that the diurnal ramp concentrates arrivals at
// mid-period: the mid-period half of each cycle must see more arrivals
// than the edges.
func TestRampModulation(t *testing.T) {
	sp := Spec{Process: Poisson, Seed: 8, MeanGap: 20, RampPeriod: 100000, RampPeak: 8}
	s := NewSource(sp, 0)
	var mid, edge int
	for i := 0; i < 100000; i++ {
		at := s.Next()
		phase := float64(at%sp.RampPeriod) / float64(sp.RampPeriod)
		if phase > 0.25 && phase < 0.75 {
			mid++
		} else {
			edge++
		}
	}
	if mid <= edge*2 {
		t.Fatalf("ramp peak=8 should concentrate arrivals mid-period: mid=%d edge=%d", mid, edge)
	}
}

// TestFarFutureClamp pins that a schedule pushed past the end of time
// clamps at ^uint64(0) instead of wrapping backwards.
func TestFarFutureClamp(t *testing.T) {
	s := NewSource(Spec{Seed: 1, MeanGap: 1 << 40}, 0)
	s.next = ^uint64(0) - 10
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		at := s.Next()
		if at < prev {
			t.Fatalf("arrival %d at %d wrapped below %d", i, at, prev)
		}
		prev = at
	}
	if prev != ^uint64(0) {
		t.Fatalf("schedule should clamp at max tick, got %d", prev)
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{},                             // no mean gap
		{Process: "weird", MeanGap: 1}, // unknown process
		{MeanGap: 1, Users: -1},
		{Process: Pareto, MeanGap: 10, Alpha: 0.5},
		{MeanGap: 10, MaxGap: 5},
		{MeanGap: 10, StormBurst: 3}, // burst without period
		{MeanGap: 10, RampPeak: 0.5},
		{MeanGap: 10, RampPeak: 3}, // peak without period
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: %+v should not validate", i, sp)
		}
	}
	good := []Spec{
		{MeanGap: 1},
		{Process: MMPP, MeanGap: 5, Users: 1000000},
		{Process: Pareto, MeanGap: 10, Alpha: 1.1, MaxGap: 10000},
		{MeanGap: 10, StormEvery: 100, StormBurst: 3, RampPeriod: 1000, RampPeak: 2},
	}
	for i, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("case %d: %+v: %v", i, sp, err)
		}
	}
}

// TestCanonical pins that default spellings collapse to one canonical
// form (the spec hash the service cache keys on).
func TestCanonical(t *testing.T) {
	a := Spec{MeanGap: 100}.Canonical()
	b := Spec{Process: Poisson, MeanGap: 100, Users: 1, BurstyGap: 9, Alpha: 0}.Canonical()
	if a != b {
		t.Fatalf("default spellings differ: %+v vs %+v", a, b)
	}
	m := Spec{Process: MMPP, MeanGap: 80}.Canonical()
	if m.BurstyGap != 10 || m.MeanDwell != 32 {
		t.Fatalf("mmpp defaults not resolved: %+v", m)
	}
	p := Spec{Process: Pareto, MeanGap: 80}.Canonical()
	if p.Alpha != 1.5 || p.MaxGap != 64*80 {
		t.Fatalf("pareto defaults not resolved: %+v", p)
	}
	if m.Alpha != 0 || p.BurstyGap != 0 {
		t.Fatal("cross-process fields should be zeroed")
	}
}
