package sim

import (
	"sync"
	"testing"
)

// thread is a scripted test thread: a Task whose steps run ops in
// order. An op may start one wait, Sleep or Wait, which resumes the
// thread at the next op; an op that starts none runs on into the next
// at once. The thread exits after the last op.
type thread struct {
	k       *Kernel
	task    *Task
	step    func(uint64)
	cell    WaitCell
	ops     []func(t *thread)
	pc      int
	waiting bool
}

// spawn starts a thread running ops; its first op runs at the current
// tick, after the events already scheduled for it.
func spawn(k *Kernel, name string, ops ...func(t *thread)) *thread {
	t := &thread{k: k, ops: ops}
	t.step = t.run
	t.cell.Init(k, t.step)
	t.task = k.GoFunc(name, t.step, 0)
	return t
}

func (t *thread) run(uint64) {
	for t.pc < len(t.ops) {
		t.waiting = false
		op := t.ops[t.pc]
		t.pc++
		op(t)
		if t.waiting {
			return
		}
	}
	t.task.Exit()
}

// Sleep resumes the thread d ticks from now; Sleep(0) lets the other
// events of the current tick run first.
func (t *thread) Sleep(d uint64) {
	t.waiting = true
	t.k.AfterFunc(d, t.step, 0)
}

// Wait resumes the thread at the next Fire of s.
func (t *thread) Wait(s *Signal) {
	t.waiting = true
	s.WaitCell(&t.cell, 0)
}

func sleep(d uint64) func(*thread) { return func(t *thread) { t.Sleep(d) } }
func wait(s *Signal) func(*thread) { return func(t *thread) { t.Wait(s) } }

func TestProcSleep(t *testing.T) {
	k := New()
	var wake []uint64
	note := func(th *thread) { wake = append(wake, k.Now()) }
	spawn(k, "a", sleep(10), note, sleep(5), note)
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
			var ops []func(*thread)
			for i := 0; i < 3; i++ {
				ops = append(ops, sleep(2), func(*thread) { log = append(log, name) })
			}
			spawn(k, name, ops...)
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
		spawn(k, "w", wait(sig), func(*thread) {
			woke++
			if k.Now() != 50 {
				t.Errorf("woke at %d, want 50", k.Now())
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
	note := func(*thread) { wakes = append(wakes, k.Now()) }
	spawn(k, "w", wait(sig), note, wait(sig), note)
	k.AtFunc(10, func(uint64) { sig.Fire() }, 0)
	k.AtFunc(20, func(uint64) { sig.Fire() }, 0)
	k.Run()
	if len(wakes) != 2 || wakes[0] != 10 || wakes[1] != 20 {
		t.Fatalf("wakes = %v, want [10 20]", wakes)
	}
}

func TestProcsCommunicate(t *testing.T) {
	k := New()
	sig := NewSignal("hand")
	var order []string
	spawn(k, "producer", sleep(10), func(*thread) {
		order = append(order, "produce")
		sig.Fire()
	})
	spawn(k, "consumer", wait(sig), func(*thread) { order = append(order, "consume") })
	k.Run()
	if len(order) != 2 || order[0] != "produce" || order[1] != "consume" {
		t.Fatalf("order = %v", order)
	}
}

func TestDrainReleasesParkedProcs(t *testing.T) {
	k := New()
	sig := NewSignal("never")
	spawn(k, "stuck", wait(sig))
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
	note := func(s string) func(*thread) { return func(*thread) { order = append(order, s) } }
	spawn(k, "a", note("a1"), sleep(0), note("a2"))
	spawn(k, "b", note("b1"))
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
		var ops []func(*thread)
		for s := 0; s < steps; s++ {
			ops = append(ops, sleep(uint64(1+(i+s)%7)))
		}
		spawn(k, "p", append(ops, func(*thread) { total++ })...)
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
	spawn(k, "parked", wait(sig))
	spawn(k, "boom", sleep(5), func(*thread) { panic("boom") })
	if r := recoverRun(k); r != "boom" {
		t.Fatalf("Run panicked with %v, want the step's panic", r)
	}
	if k.LiveProcs() != 0 || k.Pending() != 0 {
		t.Fatalf("after the panic: LiveProcs = %d, Pending = %d, want 0 (drained)", k.LiveProcs(), k.Pending())
	}
}

func TestWatchdogPanicDrains(t *testing.T) {
	k := New()
	k.SetDeadline(100)
	spin := func(th *thread) {
		th.pc-- // run this op again after the sleep
		th.Sleep(10)
	}
	spawn(k, "spin", spin)
	if recoverRun(k) == nil {
		t.Fatal("watchdog did not fire")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the watchdog, want 0", k.LiveProcs())
	}
}

// TestRunnersSharedAcrossKernels runs kernels on several goroutines at
// once, each with its own threads exchanging wakes; every kernel must
// still see its own deterministic interleaving, and the race detector
// must find nothing the kernels share.
func TestRunnersSharedAcrossKernels(t *testing.T) {
	run := func() uint64 {
		k := New()
		ping, pong := NewSignal("ping"), NewSignal("pong")
		var sum uint64
		var consumer, producer []func(*thread)
		for i := 0; i < 50; i++ {
			consumer = append(consumer, wait(ping), func(*thread) {
				sum = sum*31 + k.Now()
				pong.Fire()
			})
			producer = append(producer, sleep(uint64(1+i%3)), func(th *thread) {
				ping.Fire()
				th.Wait(pong)
			})
		}
		spawn(k, "consumer", consumer...)
		spawn(k, "producer", producer...)
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
