package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestResultsInSubmissionOrder: later-submitted tasks finish first, yet
// outcomes land in submission order.
func TestResultsInSubmissionOrder(t *testing.T) {
	const n = 16
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context) (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	outs, m := Run(context.Background(), tasks, Options{Workers: 8})
	if len(outs) != n {
		t.Fatalf("outcomes = %d, want %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Index != i || o.Label != fmt.Sprintf("t%d", i) || o.Err != nil || o.Value != i*i {
			t.Fatalf("outcome %d = %+v", i, o)
		}
	}
	if m.Runs != n || m.Failed != 0 || m.Workers != 8 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Throughput <= 0 {
		t.Fatalf("throughput = %v", m.Throughput)
	}
}

// TestSingleWorkerIsSequential: one worker executes strictly one task
// at a time, in submission order.
func TestSingleWorkerIsSequential(t *testing.T) {
	var order []int
	var running atomic.Int32
	tasks := make([]Task[int], 8)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Run: func(ctx context.Context) (int, error) {
			if running.Add(1) != 1 {
				t.Error("two tasks in flight on one worker")
			}
			order = append(order, i)
			running.Add(-1)
			return i, nil
		}}
	}
	outs, _ := Run(context.Background(), tasks, Options{Workers: 1})
	for i, o := range outs {
		if o.Value != i || order[i] != i {
			t.Fatalf("sequential order violated: outs[%d]=%+v order=%v", i, o, order)
		}
	}
}

// TestStructuredErrors: task errors and panics become *Error slots
// carrying index and label; the rest of the pool keeps going.
func TestStructuredErrors(t *testing.T) {
	tasks := []Task[int]{
		{Label: "ok", Run: func(ctx context.Context) (int, error) { return 1, nil }},
		{Label: "boom", Run: func(ctx context.Context) (int, error) { return 0, errors.New("boom") }},
		{Label: "livelock", Run: func(ctx context.Context) (int, error) {
			panic("sim: watchdog deadline 100 exceeded at tick 101 (3 live threads)")
		}},
		{Label: "after", Run: func(ctx context.Context) (int, error) { return 4, nil }},
	}
	outs, m := Run(context.Background(), tasks, Options{Workers: 2})
	if outs[0].Err != nil || outs[0].Value != 1 || outs[3].Err != nil || outs[3].Value != 4 {
		t.Fatalf("healthy runs disturbed: %+v / %+v", outs[0], outs[3])
	}
	var he *Error
	if !errors.As(outs[1].Err, &he) || he.Index != 1 || he.Label != "boom" {
		t.Fatalf("outs[1].Err = %v", outs[1].Err)
	}
	if !errors.As(outs[2].Err, &he) || !strings.Contains(he.Error(), "watchdog deadline") {
		t.Fatalf("panic not converted: %v", outs[2].Err)
	}
	if m.Failed != 2 {
		t.Fatalf("failed = %d, want 2", m.Failed)
	}
}

// TestCancelProducesStructuredErrors exercises the cancel path under
// -race: in-flight cooperative tasks observe the cancel, queued tasks
// are never dispatched, and every slot reports context.Canceled.
func TestCancelProducesStructuredErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	tasks := make([]Task[int], 6)
	for i := range tasks {
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("t%d", i),
			Run: func(c context.Context) (int, error) {
				if started.Add(1) == 2 {
					cancel()
				}
				<-c.Done()
				return 0, c.Err()
			},
		}
	}
	outs, m := Run(ctx, tasks, Options{Workers: 2})
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("outs[%d].Err = %v, want context.Canceled", i, o.Err)
		}
		var he *Error
		if !errors.As(o.Err, &he) || he.Index != i {
			t.Fatalf("outs[%d].Err not structured: %v", i, o.Err)
		}
	}
	if m.Failed != len(tasks) {
		t.Fatalf("failed = %d, want %d", m.Failed, len(tasks))
	}
	if s := started.Load(); s > 2 {
		t.Fatalf("cancel did not stop dispatch: %d tasks started", s)
	}
}

// TestPerRunTimeout: the per-task context carries the deadline for
// cooperative bodies, and a body that ignores its context still has the
// overrun surfaced on its outcome.
func TestPerRunTimeout(t *testing.T) {
	tasks := []Task[int]{
		{Label: "quick", Run: func(c context.Context) (int, error) { return 7, nil }},
		{Label: "cooperative-slow", Run: func(c context.Context) (int, error) {
			<-c.Done()
			return 0, c.Err()
		}},
		{Label: "oblivious-slow", Run: func(c context.Context) (int, error) {
			time.Sleep(80 * time.Millisecond)
			return 9, nil
		}},
	}
	outs, m := Run(context.Background(), tasks, Options{Workers: 3, Timeout: 20 * time.Millisecond})
	if outs[0].Err != nil || outs[0].Value != 7 {
		t.Fatalf("quick run failed: %+v", outs[0])
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(outs[i].Err, context.DeadlineExceeded) {
			t.Fatalf("outs[%d].Err = %v, want deadline exceeded", i, outs[i].Err)
		}
	}
	if m.Failed != 2 {
		t.Fatalf("failed = %d, want 2", m.Failed)
	}
}

// TestProgressSerialized: progress callbacks arrive serialized with
// monotonically increasing Done, ending at Total.
func TestProgressSerialized(t *testing.T) {
	const n = 12
	var mu sync.Mutex
	var seen []Progress
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = Task[int]{Run: func(ctx context.Context) (int, error) { return 0, nil }}
	}
	_, _ = Run(context.Background(), tasks, Options{
		Workers: 4,
		OnProgress: func(p Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		},
	})
	if len(seen) != n {
		t.Fatalf("progress events = %d, want %d", len(seen), n)
	}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != n {
			t.Fatalf("progress[%d] = %+v", i, p)
		}
	}
}

// TestWorkersResolution covers the GOMAXPROCS default and the
// worker-count cap at the task count.
func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers(<=0) must resolve to at least one")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
	tasks := []Task[int]{{Run: func(ctx context.Context) (int, error) { return 1, nil }}}
	_, m := Run(context.Background(), tasks, Options{Workers: 64})
	if m.Workers != 1 {
		t.Fatalf("pool spawned %d workers for 1 task", m.Workers)
	}
}

// TestMetricsString keeps the human-readable summary stable enough for
// CLI use.
func TestMetricsString(t *testing.T) {
	m := Metrics{Runs: 10, Failed: 1, Workers: 4, Wall: 2 * time.Second, Throughput: 4.5}
	s := m.String()
	for _, want := range []string{"10 runs", "1 failed", "4 workers", "4.5 runs/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Metrics.String() = %q missing %q", s, want)
		}
	}
}

// TestOnStartFiresPerRun: every run gets exactly one OnStart call before
// its OnProgress call, with the run's label, and calls stay serialized.
func TestOnStartFiresPerRun(t *testing.T) {
	const n = 12
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("t%d", i),
			Run:   func(ctx context.Context) (int, error) { return i, nil },
		}
	}
	var mu sync.Mutex
	started := map[string]int{}
	finished := map[string]int{}
	outs, _ := Run(context.Background(), tasks, Options{
		Workers: 4,
		OnStart: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			started[p.Label]++
			if finished[p.Label] != 0 {
				t.Errorf("run %s finished before it started", p.Label)
			}
			if p.Total != n {
				t.Errorf("OnStart total = %d, want %d", p.Total, n)
			}
		},
		OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			finished[p.Label]++
		},
	})
	if len(outs) != n {
		t.Fatalf("outcomes = %d", len(outs))
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		l := fmt.Sprintf("t%d", i)
		if started[l] != 1 || finished[l] != 1 {
			t.Fatalf("run %s: started %d finished %d times", l, started[l], finished[l])
		}
	}
}

func runLabel(i int) string { return fmt.Sprintf("r%d", i) }

// TestEachRunsEveryIndexOnce: every index runs exactly once at any pool
// width, a clean pool returns no error slice, and no label is built when
// no callback or error needs one.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 3, 8} {
		counts := make([]atomic.Int32, n)
		errs, m := Each(context.Background(), n, Options{Workers: workers},
			func(i int) string {
				t.Errorf("label(%d) built with no callback or error", i)
				return ""
			},
			func(_ context.Context, i int) error {
				counts[i].Add(1)
				return nil
			})
		if errs != nil || m.Runs != n || m.Failed != 0 || m.Workers != workers {
			t.Fatalf("workers=%d: errs %v, metrics %+v", workers, errs != nil, m)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestEachProgressCounts: OnStart and OnProgress calls are serialized
// and carry Run's counts: OnStart sees the runs finished so far, and
// OnProgress counts Done up to Total with Failed counting failed runs.
// Failed runs become *Error slots with their index and label.
func TestEachProgressCounts(t *testing.T) {
	const n = 60
	failing := func(i int) bool { return i%5 == 0 }
	type event struct {
		start bool
		p     Progress
	}
	var events []event // appended without a lock: the pool serializes callbacks
	var inside atomic.Int32
	record := func(start bool) func(Progress) {
		return func(p Progress) {
			if inside.Add(1) != 1 {
				t.Error("callbacks overlap")
			}
			events = append(events, event{start, p})
			inside.Add(-1)
		}
	}
	errs, m := Each(context.Background(), n, Options{Workers: 4, OnStart: record(true), OnProgress: record(false)},
		runLabel,
		func(_ context.Context, i int) error {
			if failing(i) {
				return errors.New("boom")
			}
			return nil
		})
	if len(events) != 2*n {
		t.Fatalf("events = %d, want %d", len(events), 2*n)
	}
	done, failed := 0, 0
	for k, e := range events {
		if !e.start {
			done++
			var i int
			if _, err := fmt.Sscanf(e.p.Label, "r%d", &i); err != nil {
				t.Fatalf("event %d: label %q: %v", k, e.p.Label, err)
			}
			if failing(i) {
				failed++
			}
		}
		if e.p.Done != done || e.p.Failed != failed || e.p.Total != n {
			t.Fatalf("event %d (start %v) = %+v, want done %d failed %d total %d", k, e.start, e.p, done, failed, n)
		}
	}
	if m.Failed != n/5 || failed != n/5 {
		t.Fatalf("failed: metrics %d, progress %d, want %d", m.Failed, failed, n/5)
	}
	for i := 0; i < n; i++ {
		var he *Error
		switch {
		case !failing(i) && errs[i] != nil:
			t.Fatalf("errs[%d] = %v, want nil", i, errs[i])
		case failing(i) && (!errors.As(errs[i], &he) || he.Index != i || he.Label != runLabel(i)):
			t.Fatalf("errs[%d] = %v, want *Error for run %d", i, errs[i], i)
		}
	}
}

// TestEachCancelFillsUnstartedSlots: once the context is cancelled no
// claimed run starts, runs already in flight finish and keep their
// result, and every unstarted index reports context.Canceled as a
// structured *Error with its index and label. The cancel is issued from
// OnStart as run cut is claimed, so exactly the runs before it start at
// any pool width; a context cancelled before the pool starts none.
func TestEachCancelFillsUnstartedSlots(t *testing.T) {
	const n, cut = 50, 7
	for _, workers := range []int{1, 4} {
		for _, early := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			if early {
				cancel()
			}
			opts := Options{Workers: workers, OnStart: func(p Progress) {
				if p.Label == runLabel(cut) {
					cancel()
				}
			}}
			ran := make([]atomic.Bool, n)
			errs, m := Each(ctx, n, opts, runLabel, func(_ context.Context, i int) error {
				ran[i].Store(true)
				return nil
			})
			cancel()
			started := cut
			if early {
				started = 0
			}
			for i := 0; i < n; i++ {
				if i < started {
					if !ran[i].Load() || errs[i] != nil {
						t.Fatalf("workers=%d early=%v: run %d ran %v, err %v; want it run and kept", workers, early, i, ran[i].Load(), errs[i])
					}
					continue
				}
				var he *Error
				if ran[i].Load() || !errors.Is(errs[i], context.Canceled) || !errors.As(errs[i], &he) || he.Index != i || he.Label != runLabel(i) {
					t.Fatalf("workers=%d early=%v: run %d ran %v, err %v; want structured context.Canceled", workers, early, i, ran[i].Load(), errs[i])
				}
			}
			if m.Failed != n-started {
				t.Fatalf("workers=%d early=%v: failed = %d, want %d", workers, early, m.Failed, n-started)
			}
		}
	}
}

// TestEachInlineAtOneWorker: a pool of one runs every body on the
// calling goroutine, in index order.
func TestEachInlineAtOneWorker(t *testing.T) {
	var order []int
	buf := make([]byte, 16<<10)
	_, m := Each(context.Background(), 5, Options{Workers: 1}, runLabel, func(_ context.Context, i int) error {
		order = append(order, i)
		if stack := string(buf[:runtime.Stack(buf, false)]); !strings.Contains(stack, "harness.TestEachInlineAtOneWorker(") {
			t.Errorf("run %d is not on the caller's goroutine:\n%s", i, stack)
		}
		return nil
	})
	if m.Workers != 1 || fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("workers %d, order %v", m.Workers, order)
	}
}

// TestEachAllocationFlat: the pool allocates O(workers), not O(runs):
// 100,000 no-op runs allocate at most 4 KB more than 1,000 do (the
// least of three tries each, so a stray background allocation does not
// count).
func TestEachAllocationFlat(t *testing.T) {
	body := func(context.Context, int) error { return nil }
	allocated := func(n int) uint64 {
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Each(context.Background(), n, Options{Workers: 4}, runLabel, body)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := allocated(1000), allocated(100_000)
	t.Logf("bytes allocated: %d for 1,000 runs, %d for 100,000", small, large)
	if large > small+4<<10 {
		t.Fatalf("100,000 runs allocated %d bytes, 1,000 runs %d: the pool holds per-run state", large, small)
	}
}
