package core

import (
	"testing"
	"testing/quick"

	"spamer/internal/config"
)

func TestZeroDelayImmediate(t *testing.T) {
	z := ZeroDelay{}
	st := z.Initial()
	for _, now := range []uint64{0, 100, 1 << 30} {
		if got := z.SendTick(&st, now); got != now {
			t.Fatalf("SendTick(%d) = %d", now, got)
		}
	}
	z.OnResponse(&st, false, 50)
	if got := z.SendTick(&st, 60); got != 60 {
		t.Fatalf("0-delay learned a delay: %d", got)
	}
}

func TestAdaptiveHalvesOnHit(t *testing.T) {
	a := Adaptive{InitialDelay: 64}
	st := a.Initial()
	a.OnResponse(&st, true, 100)
	if st.Delay != 32 {
		t.Fatalf("Delay = %d, want 32", st.Delay)
	}
	a.OnResponse(&st, true, 200)
	if st.Delay != 16 {
		t.Fatalf("Delay = %d, want 16", st.Delay)
	}
	if got := a.SendTick(&st, 300); got != 316 {
		t.Fatalf("SendTick = %d, want 316", got)
	}
}

func TestAdaptiveDoublesOnMiss(t *testing.T) {
	a := Adaptive{InitialDelay: 16}
	st := a.Initial()
	a.OnResponse(&st, false, 0)
	if st.Delay != 32 {
		t.Fatalf("Delay = %d, want 32", st.Delay)
	}
	a.OnResponse(&st, false, 0)
	if st.Delay != 64 {
		t.Fatalf("Delay = %d, want 64", st.Delay)
	}
}

func TestAdaptiveEscapesZero(t *testing.T) {
	a := Adaptive{InitialDelay: 1}
	st := a.Initial()
	a.OnResponse(&st, true, 0) // 1 -> 0
	if st.Delay != 0 {
		t.Fatalf("Delay = %d, want 0", st.Delay)
	}
	a.OnResponse(&st, false, 0) // 0 doubles to 1, not stuck at 0
	if st.Delay != 1 {
		t.Fatalf("Delay = %d, want 1", st.Delay)
	}
}

func TestAdaptiveCapped(t *testing.T) {
	a := Adaptive{}
	st := a.Initial()
	for i := 0; i < 64; i++ {
		a.OnResponse(&st, false, 0)
	}
	if st.Delay != config.DelayCapCycles {
		t.Fatalf("Delay = %d, want cap %d", st.Delay, config.DelayCapCycles)
	}
}

func TestAdaptiveDefaultSeed(t *testing.T) {
	a := Adaptive{}
	if st := a.Initial(); st.Delay != DefaultAdaptiveDelay {
		t.Fatalf("Delay = %d, want %d", st.Delay, DefaultAdaptiveDelay)
	}
}

// TestTunedInitPhase: during the first β fills, the prediction is "now"
// (or now+δ after a failure).
func TestTunedInitPhase(t *testing.T) {
	tu := NewTuned()
	st := tu.Initial()
	if got := tu.SendTick(&st, 1000); got != 1000 {
		t.Fatalf("init SendTick = %d, want 1000", got)
	}
	tu.OnResponse(&st, false, 1000)
	if got := tu.SendTick(&st, 1100); got != 1100+config.TunedDelta {
		t.Fatalf("init-after-fail SendTick = %d, want %d", got, 1100+config.TunedDelta)
	}
}

// TestTunedReferenceInterval: after two hits T apart, delay = T-τ and
// ddl = T+ζ — the scanning range of Listing 1.
func TestTunedReferenceInterval(t *testing.T) {
	tu := NewTuned()
	st := tu.Initial()
	tu.OnResponse(&st, true, 1000)
	tu.OnResponse(&st, true, 1500) // interval = 500
	if st.Delay != 500-config.TunedTau {
		t.Fatalf("Delay = %d, want %d", st.Delay, 500-config.TunedTau)
	}
	if st.DDL != 500+config.TunedZeta {
		t.Fatalf("DDL = %d, want %d", st.DDL, 500+config.TunedZeta)
	}
	if st.NFills != 2 || st.Last != 1500 || st.Failed {
		t.Fatalf("state = %+v", st)
	}
}

// TestTunedShortIntervalClamps: an interval below τ leaves delay 0
// rather than underflowing.
func TestTunedShortIntervalClamps(t *testing.T) {
	tu := NewTuned()
	st := tu.Initial()
	tu.OnResponse(&st, true, 1000)
	tu.OnResponse(&st, true, 1000+config.TunedTau/2)
	if st.Delay != 0 {
		t.Fatalf("Delay = %d, want 0", st.Delay)
	}
}

// TestTunedAdditiveBeforeDeadline: a miss before the deadline steps the
// delay by δ; past the deadline it shifts left by α.
func TestTunedMissUpdates(t *testing.T) {
	tu := NewTuned()
	st := PredState{Delay: 100, DDL: 500, NFills: 5, Last: 0}
	tu.OnResponse(&st, false, 0)
	if st.Delay != 100+config.TunedDelta {
		t.Fatalf("Delay = %d, want %d", st.Delay, 100+config.TunedDelta)
	}
	st = PredState{Delay: 600, DDL: 500, NFills: 5}
	tu.OnResponse(&st, false, 0)
	if st.Delay != 600<<config.TunedAlpha {
		t.Fatalf("Delay = %d, want %d", st.Delay, 600<<config.TunedAlpha)
	}
	if !st.Failed {
		t.Fatal("Failed not set after miss")
	}
}

// TestTunedLookupBranches covers the branch ladder of lookupSpecTab.
func TestTunedLookupBranches(t *testing.T) {
	tu := NewTuned()

	// Past init, recent success, elapse < delay: planned delay honoured.
	st := PredState{Delay: 400, DDL: 900, NFills: 5, Last: 1000}
	got := tu.SendTick(&st, 1100) // elapse 100
	halved := st.Delay >> bithash(st.Delay, 1100)
	var want uint64
	if 100 < halved {
		want = st.Last + halved
	} else {
		want = st.Last + st.Delay
	}
	if got != want {
		t.Fatalf("SendTick = %d, want %d", got, want)
	}

	// elapse >= delay, not failed: push immediately.
	st = PredState{Delay: 50, DDL: 900, NFills: 5, Last: 1000, Failed: false}
	if got := tu.SendTick(&st, 2000); got != 2000 {
		t.Fatalf("late-not-tried SendTick = %d, want 2000", got)
	}

	// elapse >= delay, failed, before ddl: step by δ.
	st = PredState{Delay: 50, DDL: 5000, NFills: 5, Last: 1000, Failed: true}
	if got := tu.SendTick(&st, 2000); got != 2000+config.TunedDelta {
		t.Fatalf("scanning SendTick = %d, want %d", got, 2000+config.TunedDelta)
	}

	// elapse >= ddl, failed: retry after the (shifted) delay.
	st = PredState{Delay: 50, DDL: 500, NFills: 5, Last: 1000, Failed: true}
	if got := tu.SendTick(&st, 2000); got != 2000+50 {
		t.Fatalf("past-deadline SendTick = %d, want 2050", got)
	}
}

func TestTunedEscapesZeroDelayOnShift(t *testing.T) {
	tu := NewTuned()
	st := PredState{Delay: 0, DDL: 0, NFills: 5}
	tu.OnResponse(&st, false, 0) // delay >= ddl: multiplicative branch with delay 0
	if st.Delay == 0 {
		t.Fatal("tuned delay stuck at zero")
	}
}

func TestTunedCapped(t *testing.T) {
	tu := NewTuned()
	st := PredState{Delay: config.DelayCapCycles, DDL: 0, NFills: 5}
	tu.OnResponse(&st, false, 0)
	if st.Delay > config.DelayCapCycles {
		t.Fatalf("Delay = %d beyond cap", st.Delay)
	}
}

// Property: SendTick never proposes a tick before the last successful
// push (a proposal between Last and now is legal — the device clamps it
// to "now" at issue time), and never overflows past now + 2*cap + a
// reference interval.
func TestSendTickBoundedProperty(t *testing.T) {
	algs := Algorithms()
	f := func(delay, last, ddl uint64, nfills uint16, failed bool, nowOff uint32) bool {
		delay %= config.DelayCapCycles
		last %= 1 << 20
		ddl %= 1 << 20
		now := last + uint64(nowOff)%(1<<20) // now >= last, as in real use
		st := PredState{Delay: delay, Last: last, DDL: ddl, NFills: uint64(nfills), Failed: failed}
		for _, a := range algs {
			s := st
			tick := a.SendTick(&s, now)
			if tick < last {
				return false
			}
			if tick > now+2*config.DelayCapCycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adaptive delay stays within [0, cap] under any outcome
// sequence.
func TestAdaptiveBoundedProperty(t *testing.T) {
	a := Adaptive{}
	f := func(outcomes []bool) bool {
		st := a.Initial()
		for i, hit := range outcomes {
			a.OnResponse(&st, hit, uint64(i))
			if st.Delay > config.DelayCapCycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: tuned delay stays within [0, cap] under any outcome sequence
// with monotonically increasing timestamps.
func TestTunedBoundedProperty(t *testing.T) {
	tu := NewTuned()
	f := func(outcomes []bool, gaps []uint8) bool {
		st := tu.Initial()
		now := uint64(0)
		for i, hit := range outcomes {
			g := uint64(7)
			if i < len(gaps) {
				g = uint64(gaps[i]) + 1
			}
			now += g
			tu.OnResponse(&st, hit, now)
			if st.Delay > config.DelayCapCycles {
				return false
			}
			if st.Last > now {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestByName: ByName resolves each algorithm by its Name and nothing
// else, allocating nothing.
func TestByName(t *testing.T) {
	for _, a := range ExtendedAlgorithms() {
		if got, ok := ByName(a.Name()); !ok || got != a {
			t.Fatalf("ByName(%q) = %v, %v; want %v", a.Name(), got, ok, a)
		}
	}
	for _, name := range []string{"nope", "", "zero", "zerodelay", "adaptive", "tuned+obf"} {
		if _, ok := ByName(name); ok {
			t.Fatalf("ByName(%q) succeeded", name)
		}
	}
	ExtendedAlgorithms()[0] = nil // a copy: the list behind ByName stays whole
	if a, ok := ByName("0delay"); !ok || a != (ZeroDelay{}) {
		t.Fatal("a caller's write to ExtendedAlgorithms reached ByName")
	}
	if n := testing.AllocsPerRun(100, func() { ByName("dyntuned") }); n != 0 {
		t.Fatalf("ByName allocates %v times per call", n)
	}
}

func TestAlgorithmsOrder(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 3 || algs[0].Name() != "0delay" || algs[1].Name() != "adapt" || algs[2].Name() != "tuned" {
		names := make([]string, len(algs))
		for i, a := range algs {
			names[i] = a.Name()
		}
		t.Fatalf("Algorithms = %v", names)
	}
}
