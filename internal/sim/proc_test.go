package sim

import (
	"sync"
	"testing"
)

func TestProcSleep(t *testing.T) {
	k := New()
	var wake []uint64
	k.Go("a", func(p *Proc) {
		p.Sleep(10)
		wake = append(wake, p.Now())
		p.Sleep(5)
		wake = append(wake, p.Now())
	})
	k.Run()
	if len(wake) != 2 || wake[0] != 10 || wake[1] != 15 {
		t.Fatalf("wake = %v, want [10 15]", wake)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		k := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(2)
					log = append(log, name)
				}
			})
		}
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
	// Same-tick wakes dispatch in spawn order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("log = %v, want %v", a, want)
		}
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	k := New()
	sig := NewSignal("s")
	woke := 0
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			sig.Wait(p)
			woke++
			if p.Now() != 50 {
				t.Errorf("woke at %d, want 50", p.Now())
			}
		})
	}
	k.AtFunc(50, func(uint64) { sig.Fire() }, 0)
	k.Run()
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("Waiters = %d, want 0", sig.Waiters())
	}
}

func TestSignalReusable(t *testing.T) {
	k := New()
	sig := NewSignal("s")
	var wakes []uint64
	k.Go("w", func(p *Proc) {
		sig.Wait(p)
		wakes = append(wakes, p.Now())
		sig.Wait(p)
		wakes = append(wakes, p.Now())
	})
	k.AtFunc(10, func(uint64) { sig.Fire() }, 0)
	k.AtFunc(20, func(uint64) { sig.Fire() }, 0)
	k.Run()
	if len(wakes) != 2 || wakes[0] != 10 || wakes[1] != 20 {
		t.Fatalf("wakes = %v, want [10 20]", wakes)
	}
}

func TestWaitUntil(t *testing.T) {
	k := New()
	sig := NewSignal("cond")
	val := 0
	done := uint64(0)
	k.Go("w", func(p *Proc) {
		WaitUntil(p, sig, func() bool { return val >= 3 })
		done = p.Now()
	})
	for i := 1; i <= 5; i++ {
		i := i
		k.AtFunc(uint64(i*10), func(uint64) { val = i; sig.Fire() }, 0)
	}
	k.Run()
	if done != 30 {
		t.Fatalf("done at %d, want 30", done)
	}
}

func TestWaitUntilAlreadyTrue(t *testing.T) {
	k := New()
	sig := NewSignal("cond")
	ran := false
	k.Go("w", func(p *Proc) {
		WaitUntil(p, sig, func() bool { return true })
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("WaitUntil with true condition parked forever")
	}
}

func TestProcsCommunicate(t *testing.T) {
	k := New()
	sig := NewSignal("hand")
	var order []string
	k.Go("producer", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "produce")
		sig.Fire()
	})
	k.Go("consumer", func(p *Proc) {
		sig.Wait(p)
		order = append(order, "consume")
	})
	k.Run()
	if len(order) != 2 || order[0] != "produce" || order[1] != "consume" {
		t.Fatalf("order = %v", order)
	}
}

func TestDrainReleasesParkedProcs(t *testing.T) {
	k := New()
	sig := NewSignal("never")
	k.Go("stuck", func(p *Proc) { sig.Wait(p) })
	k.RunUntil(100)
	if k.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1", k.LiveProcs())
	}
	k.Drain()
	if k.LiveProcs() != 0 {
		t.Fatalf("after Drain: LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := New()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a starts first (spawn order), yields at the same tick, b runs, then a resumes.
	want := []string{"a1", "b1", "a2"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestManyProcsStress(t *testing.T) {
	k := New()
	k.SetDeadline(1 << 24)
	const procs, steps = 64, 50
	total := 0
	for i := 0; i < procs; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			for s := 0; s < steps; s++ {
				p.Sleep(uint64(1 + (i+s)%7))
			}
			total++
		})
	}
	k.Run()
	if total != procs {
		t.Fatalf("finished = %d", total)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live = %d", k.LiveProcs())
	}
}

func TestExecutedCounter(t *testing.T) {
	k := New()
	k.AtFunc(1, func(uint64) {}, 0)
	k.AtFunc(2, func(uint64) {}, 0)
	k.Run()
	if k.Executed() != 2 {
		t.Fatalf("executed = %d", k.Executed())
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d", k.Pending())
	}
}

// recoverRun runs k and returns the value Run panicked with, if any.
func recoverRun(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Run()
	return nil
}

func TestBodyPanicUnwindsThroughRun(t *testing.T) {
	k := New()
	sig := NewSignal("never")
	k.Go("parked", func(p *Proc) { sig.Wait(p) })
	k.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	if r := recoverRun(k); r != "boom" {
		t.Fatalf("Run panicked with %v, want the body's panic", r)
	}
	if k.LiveProcs() != 0 || k.Pending() != 0 {
		t.Fatalf("after the panic: LiveProcs = %d, Pending = %d, want 0 (drained)", k.LiveProcs(), k.Pending())
	}
}

func TestWatchdogPanicDrains(t *testing.T) {
	k := New()
	k.SetDeadline(100)
	k.Go("spin", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	if recoverRun(k) == nil {
		t.Fatal("watchdog did not fire")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the watchdog, want 0", k.LiveProcs())
	}
}

// TestRunnerFreeListBounded: more processes than the free list holds
// finish, and the list keeps exactly its cap; the rest are stopped.
func TestRunnerFreeListBounded(t *testing.T) {
	k := New()
	for i := 0; i < maxIdleRunners+40; i++ {
		k.Go("p", func(p *Proc) { p.Sleep(1) })
	}
	k.Run()
	if n := IdleRunners(); n != maxIdleRunners {
		t.Fatalf("IdleRunners = %d, want the cap %d", n, maxIdleRunners)
	}
}

// TestRunnersSharedAcrossKernels runs kernels on several goroutines at
// once, so runners move between goroutines through the free list; every
// kernel must still see its own deterministic interleaving.
func TestRunnersSharedAcrossKernels(t *testing.T) {
	run := func() uint64 {
		k := New()
		ping, pong := NewSignal("ping"), NewSignal("pong")
		var sum uint64
		k.Go("consumer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				ping.Wait(p)
				sum = sum*31 + p.Now()
				pong.Fire()
			}
		})
		k.Go("producer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(uint64(1 + i%3))
				ping.Fire()
				pong.Wait(p)
			}
		})
		k.Run()
		return sum
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent kernel sum = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
