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
	var runs []run
	for _, alg := range algs {
		cfg := spamer.Config{Algorithm: alg, Deadline: 1 << 40}
		seq = append(seq, w.Run(cfg, 1))
		runs = append(runs, run{w, cfg, alg})
	}
	results, err := runAll(context.Background(), runs, 1, harness.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res != seq[i] {
			t.Fatalf("parallel run %d (%s) diverged:\nparallel:   %+v\nsequential: %+v",
				i, algs[i], res, seq[i])
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

// errOf keeps the error of a study's (result, error) pair.
func errOf[T any](_ T, err error) error { return err }

// TestRunMatrixParallelCancelled: under a cancelled context every study
// entry point, and Tune, aborts with a structured error instead of
// running anything.
func TestRunMatrixParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := harness.Options{Workers: 4}
	for _, tc := range []struct {
		study string
		err   error
	}{
		{"matrix", errOf(RunMatrixParallel(ctx, 1, opts))},
		{"figure11", errOf(Figure11Parallel(ctx, "FIR", 1, opts))},
		{"inline", errOf(InlineStudyParallel(ctx, 1, opts))},
		{"predictors", errOf(PredictorStudyParallel(ctx, 1, opts))},
		{"srd", errOf(SweepParallel(ctx, "firewall", spamer.AlgTuned, []int{8, 64}, setSRDEntries, 1, opts))},
		{"hop", errOf(SweepParallel(ctx, "FIR", spamer.AlgZeroDelay, []int{6, 12}, setHopLatency, 1, opts))},
		{"channels", errOf(SweepParallel(ctx, "halo", spamer.AlgZeroDelay, []int{1, 2}, setBusChannels, 1, opts))},
		{"devices", errOf(SweepParallel(ctx, "halo", spamer.AlgZeroDelay, []int{1, 2}, setDevices, 1, opts))},
		{"obfuscation", errOf(ObfuscationStudyParallel(ctx, 32, 1, opts))},
		{"software-queue", errOf(SoftwareQueueStudyParallel(ctx, opts))},
		{"tune", errOf(Tune(ctx, "firewall", 1, 2, opts))},
	} {
		if !errors.Is(tc.err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.study, tc.err)
		}
		var he *harness.Error
		if !errors.As(tc.err, &he) {
			t.Errorf("%s: err = %v, want *harness.Error", tc.study, tc.err)
		}
	}
}

// failingRun is a run that cannot complete: four consumer threads, step
// machines on SpawnFunc, pop a queue nobody pushes, so the run
// deadlocks, or, with panics set, the first consumer's step panics while
// the others wait.
func failingRun(label string, panics bool) run {
	w := &workloads.Workload{Name: label, Build: func(sys *spamer.System, _ int) {
		q := sys.NewQueue("q")
		for i := 0; i < 4; i++ {
			var rx *spamer.Consumer
			var step func(uint64)
			step = func(state uint64) {
				switch state {
				case 0:
					var pending bool
					if rx, pending = q.NewConsumerThen(1, sim.Cont{Fn: step, Arg: 1}); pending {
						return
					}
					fallthrough
				case 1:
					sys.Kernel().AfterFunc(10, step, 2)
				case 2:
					if panics && i == 0 {
						panic("boom in " + label)
					}
					rx.PopThen(sim.Cont{Fn: step, Arg: 3})
				}
			}
			sys.SpawnFunc("consumer", step, 0)
		}
	}}
	return run{w, spamer.Config{Algorithm: spamer.AlgBaseline}, label}
}

// TestBodyPanicIsRunError: a panic inside a simulated thread's body
// comes back as that run's *harness.Error; the other runs complete.
func TestBodyPanicIsRunError(t *testing.T) {
	w, _ := workloads.ByName("ping-pong")
	runs := []run{
		{w, spamer.Config{Algorithm: spamer.AlgBaseline}, "ok-0"},
		failingRun("panics", true),
		{w, spamer.Config{Algorithm: spamer.AlgBaseline}, "ok-2"},
	}
	results, err := runAll(context.Background(), runs, 1, harness.Options{Workers: 2})
	var he *harness.Error
	if !errors.As(err, &he) || he.Index != 1 || !strings.Contains(he.Error(), "boom in panics") {
		t.Fatalf("err = %v, want run 1's *harness.Error carrying the body panic", err)
	}
	if results[0].Ticks == 0 || results[2].Ticks == 0 {
		t.Fatalf("healthy runs: %+v / %+v", results[0], results[2])
	}
}

// failingShape is a synthetic-shape run that cannot complete: the first
// stash is dropped, so the first stage waits for a message that never
// lands and the run deadlocks, or, with panics set, the chain's first
// queue is closed before Run, so the source's first step panics.
func failingShape(label string, panics bool) run {
	sh := workloads.Shape{Stages: 3, Messages: 20}
	w := &workloads.Workload{Name: label, Build: func(sys *spamer.System, scale int) {
		sh.Workload().Build(sys, scale)
		if panics {
			if err := sys.Queues()[0].Close(); err != nil {
				panic(err)
			}
		}
	}}
	return run{w, spamer.Config{Algorithm: spamer.AlgBaseline, FaultDropStash: 1}, label}
}

// TestStepPanicIsRunError: a panic inside a synthetic shape's step
// comes back as that run's *harness.Error; the other runs complete.
func TestStepPanicIsRunError(t *testing.T) {
	sh := workloads.Shape{Stages: 3, Messages: 20}
	runs := []run{
		{sh.Workload(), spamer.Config{Algorithm: spamer.AlgBaseline}, "ok-0"},
		failingShape("panics", true),
		{sh.Workload(), spamer.Config{Algorithm: spamer.AlgTuned}, "ok-2"},
	}
	results, err := runAll(context.Background(), runs, 1, harness.Options{Workers: 2})
	var he *harness.Error
	if !errors.As(err, &he) || he.Index != 1 || !strings.Contains(he.Error(), "NewProducer on closed queue chain.q0") {
		t.Fatalf("err = %v, want run 1's *harness.Error carrying the step panic", err)
	}
	if results[0].Popped != 40 || results[2].Popped != 40 {
		t.Fatalf("healthy runs: %+v / %+v", results[0], results[2])
	}
}

// TestFailedRunsReleaseProcesses: deadlocked and panicking runs, of
// hand-written step machines and of synthetic shapes, leave nothing
// behind: past the first batch, further failures do not grow the
// goroutine count.
func TestFailedRunsReleaseProcesses(t *testing.T) {
	fail := func(n int) {
		runs := make([]run, n)
		for i := range runs {
			if i%4 < 2 {
				runs[i] = failingRun("fail", i%2 == 1)
			} else {
				runs[i] = failingShape("fail-shape", i%2 == 1)
			}
		}
		failed := 0
		_, err := runAll(context.Background(), runs, 1, harness.Options{
			Workers:    2,
			OnProgress: func(p harness.Progress) { failed = p.Failed },
		})
		if err == nil || failed != n {
			t.Fatalf("failed = %d (err %v), want %d", failed, err, n)
		}
	}
	fail(10)
	time.Sleep(10 * time.Millisecond) // let the pool's workers exit
	after10 := runtime.NumGoroutine()
	fail(40)
	after40 := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after40 > after10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after40 = runtime.NumGoroutine()
	}
	if after40 > after10 {
		t.Fatalf("goroutines: %d after 10 failing runs, %d after 40 more", after10, after40)
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
