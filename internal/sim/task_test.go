package sim

import (
	"fmt"
	"strings"
	"testing"

	"spamer/internal/blocks"
)

// TestGoFuncTraceMatchesGo: a GoFunc thread dispatches the (tick, seq)
// trace, start event included, that a blocking coroutine process
// sleeping the same delays dispatched, and counts as live exactly as
// long. That runtime is gone; its trace is kept as the literal it
// recorded: two unrelated events share the seq counter and look at the
// live count mid-run (tick 5) and after the thread ends (tick 30).
func TestGoFuncTraceMatchesGo(t *testing.T) {
	const proc = "0/2 live 1 0/4 live 1 5/1 live 1 7/5 live 1 10/6 live 1 10/7 live 1 22/8 live 1 30/3 live 0"
	delays := []uint64{0, 7, 3, 0, 12}
	k := New()
	var out []string
	k.SetDispatchObserver(func(tick, seq uint64) {
		out = append(out, fmt.Sprintf("%d/%d live %d", tick, seq, k.LiveProcs()))
	})
	k.AfterFunc(5, func(uint64) {}, 0)
	i := 0
	var task *Task
	var step func(uint64)
	step = func(uint64) {
		if i == len(delays) {
			task.Exit()
			return
		}
		k.AfterFunc(delays[i], step, 0)
		i++
	}
	task = k.GoFunc("t", step, 0)
	k.AfterFunc(30, func(uint64) {}, 0)
	k.Run()
	if got := strings.Join(out, " "); got != proc {
		t.Fatalf("traces differ:\nproc: %v\ntask: %v", proc, got)
	}
}

// TestTaskComputeAndThen: Compute with a zero d runs the step at once
// and schedules nothing, with d > 0 it is one event d ticks on, Then
// resumes the step function at the state it names, and Tasks counts
// every thread spawned, exited ones included.
func TestTaskComputeAndThen(t *testing.T) {
	const want = "0@0/1 1@0/1 2@5/2 3@5/2"
	k := New()
	var task *Task
	var got []string
	step := func(state uint64) {
		got = append(got, fmt.Sprintf("%d@%d/%d", state, k.Now(), k.Executed()))
		switch state {
		case 0:
			task.Compute(0, 1)
		case 1:
			task.Compute(5, 2)
		case 2:
			task.Then(3).Call()
		case 3:
			task.Exit()
		}
	}
	task = k.GoFunc("t", step, 0)
	k.Run()
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("steps (state@tick/events) = %s, want %s", s, want)
	}
	if k.Tasks() != 1 || k.LiveProcs() != 0 {
		t.Fatalf("Tasks = %d, LiveProcs = %d; want 1 and 0", k.Tasks(), k.LiveProcs())
	}
}

// TestDrainExitsTasks: Drain after RunUntil exits a thread that never
// exits on its own, and no further step runs.
func TestDrainExitsTasks(t *testing.T) {
	k := New()
	steps := 0
	var step func(uint64)
	step = func(uint64) {
		steps++
		k.AfterFunc(100, step, 0)
	}
	task := k.GoFunc("forever", step, 0)
	k.RunUntil(250)
	if k.LiveProcs() != 1 || steps != 3 {
		t.Fatalf("before Drain: LiveProcs = %d, steps = %d, want 1 and 3", k.LiveProcs(), steps)
	}
	k.Drain()
	if k.LiveProcs() != 0 || !task.Exited() {
		t.Fatalf("after Drain: LiveProcs = %d, exited = %v, want 0 and true", k.LiveProcs(), task.Exited())
	}
	k.Run()
	if steps != 3 {
		t.Fatalf("a step ran after Drain: steps = %d, want 3", steps)
	}
	task.Exit() // exiting a drained thread is a no-op
	if k.LiveProcs() != 0 {
		t.Fatalf("Exit after Drain: LiveProcs = %d, want 0", k.LiveProcs())
	}
}

// TestTasksBeyondFirstArenaBlock: threads spawned past the kernel's
// first storage block keep their identity, count as live until they
// exit, and Drain reaches the later blocks.
func TestTasksBeyondFirstArenaBlock(t *testing.T) {
	k := New()
	n := 2*blocks.Size + 3
	tasks := make([]*Task, n)
	for i := range tasks {
		i := i
		tasks[i] = k.GoFunc(fmt.Sprintf("t%d", i), func(uint64) {
			k.AfterFunc(uint64(i), func(uint64) { tasks[i].Exit() }, 0)
		}, 0)
	}
	k.RunUntil(uint64(n / 2)) // task i exits at tick i
	if live, want := k.LiveProcs(), n-n/2-1; live != want {
		t.Fatalf("LiveProcs = %d, want %d", live, want)
	}
	k.Drain()
	for i, task := range tasks {
		if !task.Exited() || task.Name() != fmt.Sprintf("t%d", i) {
			t.Fatalf("task %d: exited %v, name %q", i, task.Exited(), task.Name())
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("after Drain: LiveProcs = %d, want 0", k.LiveProcs())
	}
}

// TestStepPanicUnwindsThroughRun: a panic inside a step leaves through
// Run, which drains the kernel: every waiting thread exits.
func TestStepPanicUnwindsThroughRun(t *testing.T) {
	k := New()
	sig := NewSignal("never")
	spawn(k, "parked", wait(sig))
	var c WaitCell
	c.Init(k, func(uint64) {})
	k.GoFunc("waiting", func(uint64) { sig.WaitCell(&c, 0) }, 0)
	k.GoFunc("boom", func(uint64) { k.AfterFunc(5, func(uint64) { panic("boom") }, 0) }, 0)
	if r := recoverRun(k); r != "boom" {
		t.Fatalf("Run panicked with %v, want the step's panic", r)
	}
	if k.LiveProcs() != 0 || k.Pending() != 0 {
		t.Fatalf("after the panic: LiveProcs = %d, Pending = %d, want 0 (drained)", k.LiveProcs(), k.Pending())
	}
}

// TestWaitAnyCellWakesOnce: two of the signals fire in the same tick,
// and the continuation runs once; the next registration wakes again.
func TestWaitAnyCellWakesOnce(t *testing.T) {
	k := New()
	a, b, c := NewSignal("a"), NewSignal("b"), NewSignal("c")
	var cell WaitCell
	var wakes []uint64
	cell.Init(k, func(arg uint64) { wakes = append(wakes, k.Now()*10+arg) })
	WaitAnyCell(&cell, 1, a, b, c)
	k.AtFunc(10, func(uint64) {
		b.Fire()
		a.Fire()
	}, 0)
	k.AtFunc(20, func(uint64) {
		c.Fire() // the spent token: no wake
		WaitAnyCell(&cell, 2, a, c)
	}, 0)
	k.AtFunc(30, func(uint64) {
		a.Fire()
		c.Fire()
	}, 0)
	k.Run()
	if len(wakes) != 2 || wakes[0] != 101 || wakes[1] != 302 {
		t.Fatalf("wakes (tick*10+arg) = %v, want [101 302]", wakes)
	}
}

// TestWaitAnyFirstSignalWins: a thread waits on a and b; b fires first
// and wakes it at b's tick, and a's later fire finds the token spent.
func TestWaitAnyFirstSignalWins(t *testing.T) {
	k := New()
	a, b := NewSignal("a"), NewSignal("b")
	var cell WaitCell
	var task *Task
	var woke []uint64
	step := func(n uint64) {
		if n == 0 {
			WaitAnyCell(&cell, 1, a, b)
			return
		}
		woke = append(woke, k.Now())
		task.Exit()
	}
	cell.Init(k, step)
	task = k.GoFunc("w", step, 0)
	k.AtFunc(30, func(uint64) { b.Fire() }, 0)
	k.AtFunc(60, func(uint64) { a.Fire() }, 0)
	k.Run()
	if len(woke) != 1 || woke[0] != 30 {
		t.Fatalf("woke at %v, want [30] (first signal)", woke)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

// TestWaitAnyCellSpentTokenIgnored: a thread waits on a and b, wakes on
// a, and waits on both again, so b holds its spent registration and the
// current one; b's fire wakes the thread once, and a later fire of a
// finds that token spent too.
func TestWaitAnyCellSpentTokenIgnored(t *testing.T) {
	k := New()
	a, b := NewSignal("a"), NewSignal("b")
	var cell WaitCell
	var task *Task
	var wakes []uint64
	step := func(n uint64) {
		if n > 0 {
			wakes = append(wakes, k.Now())
		}
		if n == 2 {
			task.Exit()
			return
		}
		WaitAnyCell(&cell, n+1, a, b)
	}
	cell.Init(k, step)
	task = k.GoFunc("w", step, 0)
	k.AtFunc(10, func(uint64) { a.Fire() }, 0)
	k.AtFunc(20, func(uint64) { b.Fire() }, 0)
	k.AtFunc(30, func(uint64) { a.Fire() }, 0)
	k.Run()
	if len(wakes) != 2 || wakes[0] != 10 || wakes[1] != 20 {
		t.Fatalf("wake ticks = %v, want [10 20]", wakes)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

// TestWaitAnyCellSameSignalTwice: registering one signal twice in one
// wait is degenerate but legal, and its fire wakes the thread once.
func TestWaitAnyCellSameSignalTwice(t *testing.T) {
	k := New()
	a := NewSignal("a")
	var cell WaitCell
	var task *Task
	wakes := 0
	step := func(n uint64) {
		if n == 0 {
			WaitAnyCell(&cell, 1, a, a)
			return
		}
		wakes++
		task.Exit()
	}
	cell.Init(k, step)
	task = k.GoFunc("w", step, 0)
	k.AtFunc(5, func(uint64) { a.Fire() }, 0)
	k.Run()
	if wakes != 1 || k.LiveProcs() != 0 {
		t.Fatalf("wakes = %d, LiveProcs = %d, want 1 and 0", wakes, k.LiveProcs())
	}
}
