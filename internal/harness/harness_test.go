package harness

import (
	"context"
	"errors"
	"fmt"
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

// TestValuesAndFirstError cover the unwrap helpers.
func TestValuesAndFirstError(t *testing.T) {
	ok := []Outcome[int]{{Value: 1}, {Value: 2}}
	vals, err := Values(ok)
	if err != nil || len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("Values = %v, %v", vals, err)
	}
	if FirstError(ok) != nil {
		t.Fatal("FirstError on clean outcomes")
	}
	bad := []Outcome[int]{{Value: 1}, {Err: &Error{Index: 1, Label: "x", Err: errors.New("boom")}}}
	if _, err := Values(bad); err == nil {
		t.Fatal("Values missed the failure")
	}
	if FirstError(bad) == nil {
		t.Fatal("FirstError missed the failure")
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
