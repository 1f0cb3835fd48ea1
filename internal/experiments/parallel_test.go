package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spamer"
	"spamer/internal/harness"
	"spamer/internal/sim"
	"spamer/internal/workloads"
)

// TestParallelRunsBitIdenticalToSequential is the harness determinism
// test: the same seed configs run sequentially and through the pool at
// high worker counts must produce per-run Results that are identical in
// every field (each sim.Kernel is single-threaded; parallelism exists
// only across independent systems).
func TestParallelRunsBitIdenticalToSequential(t *testing.T) {
	w, ok := workloads.ByName("ping-pong")
	if !ok {
		t.Fatal("ping-pong missing")
	}
	algs := spamer.Configs()

	var seq []spamer.Result
	for _, alg := range algs {
		seq = append(seq, w.Run(spamer.Config{Algorithm: alg, Deadline: 1 << 40}, 1))
	}

	var tasks []harness.Task[spamer.Result]
	for _, alg := range algs {
		tasks = append(tasks, runTask(w, spamer.Config{Algorithm: alg, Deadline: 1 << 40}, 1, alg))
	}
	outs, m := harness.Run(context.Background(), tasks, harness.Options{Workers: 8})
	if m.Failed != 0 {
		t.Fatalf("failures: %+v", m)
	}
	for i, o := range outs {
		if o.Value != seq[i] {
			t.Fatalf("parallel run %d (%s) diverged:\nparallel:   %+v\nsequential: %+v",
				i, algs[i], o.Value, seq[i])
		}
	}
}

// TestFigure11ParallelDeterministic: the assembled points are identical
// at any worker count.
func TestFigure11ParallelDeterministic(t *testing.T) {
	one, err := Figure11Parallel(context.Background(), "ping-pong", 1, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Figure11Parallel(context.Background(), "ping-pong", 1, harness.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("Figure 11 points differ across worker counts:\n1: %+v\n8: %+v", one, many)
	}
}

// TestRunMatrixParallelCancelled: a cancelled context aborts the sweep
// with a structured error instead of running anything.
func TestRunMatrixParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMatrixParallel(ctx, 1, harness.Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var he *harness.Error
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *harness.Error", err)
	}
}

// failingTask is a run that cannot complete: four consumers pop a queue
// nobody pushes, so the run deadlocks, or, with panics set, the first
// consumer's body panics while the others are parked.
func failingTask(label string, panics bool) harness.Task[spamer.Result] {
	return harness.Task[spamer.Result]{Label: label, Run: func(context.Context) (spamer.Result, error) {
		sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgBaseline})
		q := sys.NewQueue("q")
		for i := 0; i < 4; i++ {
			sys.Spawn("consumer", func(th *spamer.Thread) {
				rx := q.NewConsumer(th.Proc, 1)
				th.Compute(10)
				if panics && i == 0 {
					panic("boom in " + label)
				}
				rx.Pop(th.Proc)
			})
		}
		return sys.Run(), nil
	}}
}

// TestBodyPanicIsRunError: a panic inside a simulated thread's body
// comes back as that run's *harness.Error; the other runs complete.
func TestBodyPanicIsRunError(t *testing.T) {
	w, _ := workloads.ByName("ping-pong")
	tasks := []harness.Task[spamer.Result]{
		runTask(w, spamer.Config{Algorithm: spamer.AlgBaseline}, 1, "ok-0"),
		failingTask("panics", true),
		runTask(w, spamer.Config{Algorithm: spamer.AlgBaseline}, 1, "ok-2"),
	}
	outs, m := harness.Run(context.Background(), tasks, harness.Options{Workers: 2})
	if m.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %+v", m.Failed, outs)
	}
	var he *harness.Error
	if !errors.As(outs[1].Err, &he) || he.Index != 1 || !strings.Contains(he.Error(), "boom in panics") {
		t.Fatalf("run 1 err = %v, want *harness.Error carrying the body panic", outs[1].Err)
	}
	if outs[0].Err != nil || outs[2].Err != nil || outs[0].Value.Ticks == 0 {
		t.Fatalf("healthy runs: %+v / %+v", outs[0], outs[2])
	}
}

// failingShape is a synthetic-shape run, whose threads are process-free,
// that cannot complete: the first stash is dropped, so the first stage
// waits for a message that never lands and the run deadlocks, or, with
// panics set, the chain's first queue is closed before Run, so the
// source's first step panics.
func failingShape(label string, panics bool) harness.Task[spamer.Result] {
	return harness.Task[spamer.Result]{Label: label, Run: func(context.Context) (spamer.Result, error) {
		sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgBaseline, FaultDropStash: 1})
		sh := workloads.Shape{Stages: 3, Messages: 20}
		sh.Workload().Build(sys, 1)
		if panics {
			if err := sys.Queues()[0].Close(); err != nil {
				return spamer.Result{}, err
			}
		}
		return sys.Run(), nil
	}}
}

// TestStepPanicIsRunError: a panic inside a process-free thread's step
// comes back as that run's *harness.Error; the other runs complete.
func TestStepPanicIsRunError(t *testing.T) {
	sh := workloads.Shape{Stages: 3, Messages: 20}
	tasks := []harness.Task[spamer.Result]{
		runTask(sh.Workload(), spamer.Config{Algorithm: spamer.AlgBaseline}, 1, "ok-0"),
		failingShape("panics", true),
		runTask(sh.Workload(), spamer.Config{Algorithm: spamer.AlgTuned}, 1, "ok-2"),
	}
	outs, m := harness.Run(context.Background(), tasks, harness.Options{Workers: 2})
	if m.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %+v", m.Failed, outs)
	}
	var he *harness.Error
	if !errors.As(outs[1].Err, &he) || he.Index != 1 || !strings.Contains(he.Error(), "NewProducer on closed queue chain.q0") {
		t.Fatalf("run 1 err = %v, want *harness.Error carrying the step panic", outs[1].Err)
	}
	if outs[0].Err != nil || outs[2].Err != nil || outs[0].Value.Popped != 40 || outs[2].Value.Popped != 40 {
		t.Fatalf("healthy runs: %+v / %+v", outs[0], outs[2])
	}
}

// TestFailedRunsReleaseProcesses: deadlocked and panicking runs, of
// blocking processes and of process-free synthetic shapes, leave no
// parked process behind. Past the first batch, further failures do not
// grow the goroutine count, apart from idle runners waiting on the
// kernel's bounded free list.
func TestFailedRunsReleaseProcesses(t *testing.T) {
	fail := func(n int) {
		tasks := make([]harness.Task[spamer.Result], n)
		for i := range tasks {
			if i%4 < 2 {
				tasks[i] = failingTask("fail", i%2 == 1)
			} else {
				tasks[i] = failingShape("fail-shape", i%2 == 1)
			}
		}
		_, m := harness.Run(context.Background(), tasks, harness.Options{Workers: 2})
		if m.Failed != n {
			t.Fatalf("failed = %d, want %d", m.Failed, n)
		}
	}
	busy := func() int { return runtime.NumGoroutine() - sim.IdleRunners() }
	fail(10)
	time.Sleep(10 * time.Millisecond) // let the pool's workers exit
	after10 := busy()
	fail(40)
	after40 := busy()
	for deadline := time.Now().Add(2 * time.Second); after40 > after10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after40 = busy()
	}
	if after40 > after10 {
		t.Fatalf("goroutines past idle runners: %d after 10 failing runs, %d after 40 more", after10, after40)
	}
}

// BenchmarkHarnessMatrix runs the full 8×4 evaluation matrix through
// the pool at one worker and at GOMAXPROCS workers — the wall-clock
// ratio on a multi-core host is the harness speedup.
func BenchmarkHarnessMatrix(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunMatrixParallel(context.Background(), 1, harness.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
