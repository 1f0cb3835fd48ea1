package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var got []int
	k.AtFunc(10, func(uint64) { got = append(got, 1) }, 0)
	k.AtFunc(5, func(uint64) { got = append(got, 0) }, 0)
	k.AtFunc(10, func(uint64) { got = append(got, 2) }, 0) // same tick: FIFO by seq
	k.AtFunc(20, func(uint64) { got = append(got, 3) }, 0)
	k.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", k.Now())
	}
}

func TestAfterAccumulates(t *testing.T) {
	k := New()
	var ticks []uint64
	k.AtFunc(3, func(uint64) {
		k.AfterFunc(7, func(uint64) { ticks = append(ticks, k.Now()) }, 0)
	}, 0)
	k.Run()
	if len(ticks) != 1 || ticks[0] != 10 {
		t.Fatalf("ticks = %v, want [10]", ticks)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.AtFunc(10, func(uint64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.AtFunc(5, func(uint64) {}, 0)
	}, 0)
	k.Run()
}

func TestStopAndResume(t *testing.T) {
	k := New()
	n := 0
	for i := 1; i <= 5; i++ {
		tick := uint64(i * 10)
		k.AtFunc(tick, func(uint64) {
			n++
			if tick == 30 {
				k.Stop()
			}
		}, 0)
	}
	k.Run()
	if n != 3 {
		t.Fatalf("after Stop: n = %d, want 3", n)
	}
	k.Run()
	if n != 5 {
		t.Fatalf("after resume: n = %d, want 5", n)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	n := 0
	k.AtFunc(10, func(uint64) { n++ }, 0)
	k.AtFunc(20, func(uint64) { n++ }, 0)
	k.AtFunc(30, func(uint64) { n++ }, 0)
	k.RunUntil(20)
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", k.Now())
	}
	k.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

// TestRunUntilAfterStop: a Stop inside RunUntil leaves the clock at the
// stopping tick. RunUntil used to fast-forward to its horizon anyway, so
// the event still pending at tick 20 later ran at a tick past 100.
func TestRunUntilAfterStop(t *testing.T) {
	k := New()
	var fired []uint64
	k.AtFunc(10, func(uint64) { fired = append(fired, k.Now()); k.Stop() }, 0)
	k.AtFunc(20, func(uint64) { fired = append(fired, k.Now()) }, 0)
	k.RunUntil(100)
	if k.Now() != 10 {
		t.Fatalf("Now() after a stopped RunUntil = %d, want 10", k.Now())
	}
	k.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired at %v, want [10 20]", fired)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", k.Now())
	}
}

// TestPendingExact: Pending counts the undispatched events, wheel and
// far heap alike, and always equals the events scheduled minus
// Executed(): inside a callback, after a Stop leaves a bucket half
// dispatched, after RunUntil jumps the window past a far-heap event's
// migration, and after Drain.
func TestPendingExact(t *testing.T) {
	k := New()
	scheduled := 0
	at := func(tick uint64, fn func(uint64)) {
		scheduled++
		k.AtFunc(tick, fn, 0)
	}
	check := func(where string, want int) {
		t.Helper()
		if got := k.Pending(); got != want || got != scheduled-int(k.Executed()) {
			t.Fatalf("%s: Pending() = %d, want %d (scheduled %d, executed %d)",
				where, got, want, scheduled, k.Executed())
		}
	}
	nop := func(uint64) {}
	at(5, func(uint64) { check("first callback", 6) })
	at(5, func(uint64) { k.Stop() })
	at(5, nop)
	at(5, nop)
	at(40, nop)
	at(500, nop)  // far heap until the window reaches it
	at(2000, nop) // far heap
	check("before Run", 7)
	k.Run()
	check("after a Stop mid-bucket", 5)
	k.RunUntil(480) // dispatches the rest of tick 5 and tick 40
	check("after RunUntil jumped the window", 2)
	at(490, nop)
	check("scheduled in the jumped window", 3)
	k.RunUntil(1000)
	check("after RunUntil(1000)", 1)
	at(1500, nop)
	k.Drain() // drops the events at 1500 and 2000 undispatched
	scheduled = int(k.Executed())
	check("after Drain", 0)
	k.Run()
	check("after Run on a drained kernel", 0)
}

// TestRunUntilWatchdogPanics is the regression test for the RunUntil
// loop bypassing the watchdog: a livelock below the horizon used to
// spin until the horizon instead of panicking at the deadline like Run.
func TestRunUntilWatchdogPanics(t *testing.T) {
	k := New()
	k.SetDeadline(100)
	var tick func(uint64)
	tick = func(uint64) { k.AfterFunc(1, tick, 0) } // endless self-rescheduling
	k.AtFunc(0, tick, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunUntil livelock did not trip the watchdog")
		}
		if k.Now() > 101 {
			t.Errorf("watchdog fired late: now = %d", k.Now())
		}
	}()
	k.RunUntil(1 << 20)
}

// RunUntil below the deadline must not trip the watchdog.
func TestRunUntilBeforeDeadlineRuns(t *testing.T) {
	k := New()
	k.SetDeadline(1000)
	n := 0
	k.AtFunc(10, func(uint64) { n++ }, 0)
	k.AtFunc(20, func(uint64) { n++ }, 0)
	k.RunUntil(50)
	if n != 2 || k.Now() != 50 {
		t.Fatalf("n = %d, now = %d", n, k.Now())
	}
}

func TestWatchdogPanics(t *testing.T) {
	k := New()
	k.SetDeadline(100)
	var tick func(uint64)
	tick = func(uint64) { k.AfterFunc(10, tick, 0) } // endless self-rescheduling
	k.AtFunc(0, tick, 0)
	defer func() {
		if recover() == nil {
			t.Error("watchdog did not panic")
		}
	}()
	k.Run()
}

// Property: regardless of insertion order, events fire in nondecreasing
// tick order, with ties broken by insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := New()
		type fired struct {
			tick uint64
			id   int
		}
		var log []fired
		for i, r := range raw {
			tick := uint64(r % 97)
			id := i
			k.AtFunc(tick, func(uint64) { log = append(log, fired{tick, id}) }, 0)
		}
		k.Run()
		if len(log) != len(raw) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].tick < log[i-1].tick {
				return false
			}
			if log[i].tick == log[i-1].tick && log[i].id < log[i-1].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		k := New()
		rng := rand.New(rand.NewSource(42))
		var log []uint64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			k.AfterFunc(uint64(rng.Intn(50)), func(uint64) {
				log = append(log, k.Now())
				spawn(depth + 1)
				spawn(depth + 1)
			}, 0)
		}
		k.AtFunc(0, func(uint64) { spawn(0) }, 0)
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
