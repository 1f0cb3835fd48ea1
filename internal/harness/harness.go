// Package harness fans independent simulation runs across a bounded
// worker pool. Every evaluation entry point (the figure matrices, the
// parameter sweeps, the tuner) consists of many mutually independent,
// deterministic spamer.System runs; the harness executes them on
// multiple cores while keeping the observable behaviour identical to a
// sequential loop:
//
//   - results are returned in submission order regardless of completion
//     order, so downstream tables and figures are byte-identical;
//   - each sim.Kernel stays single-threaded — parallelism exists only
//     across systems, never inside one, preserving the kernel's
//     determinism guarantee;
//   - a failed run (watchdog panic, deadlock panic, context cancel)
//     becomes a structured *Error in its slot instead of killing the
//     whole sweep.
//
// Cancellation is context-based and cooperative: the pool stops
// dispatching queued tasks as soon as the context is cancelled, and the
// per-task context (with Options.Timeout applied) is handed to the task
// body for finer-grained checks. A runaway simulation is bounded by the
// kernel watchdog (spamer.Config.Deadline), whose panic the harness
// converts into that run's error.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Task is one independent unit of work: typically a closure that builds
// a spamer.System, runs it to completion, and returns its Result.
type Task[T any] struct {
	// Label names the run in progress reports and errors.
	Label string
	// Run executes the task. ctx carries pool cancellation and the
	// per-task timeout; CPU-bound bodies that cannot poll it should
	// bound themselves another way (e.g. the sim watchdog deadline).
	Run func(ctx context.Context) (T, error)
}

// Error is the structured failure of a single run.
type Error struct {
	Index int    // submission index of the failed task
	Label string // task label
	Err   error  // cause: task error, recovered panic, or context error
}

func (e *Error) Error() string {
	return fmt.Sprintf("harness: run %d (%s): %v", e.Index, e.Label, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Outcome is one task's slot in the result slice. Outcomes are ordered
// by submission index, never by completion order.
type Outcome[T any] struct {
	Index int
	Label string
	Value T             // zero when Err != nil
	Err   error         // nil on success, otherwise *Error
	Wall  time.Duration // host wall-clock the run took
}

// Progress is a live snapshot delivered after each run finishes.
type Progress struct {
	Done    int    // runs finished so far (including failures)
	Total   int    // total runs submitted
	Failed  int    // runs finished with an error
	Label   string // label of the run that just finished
	Elapsed time.Duration
}

// Options tunes a pool invocation.
type Options struct {
	// Workers bounds pool concurrency; <= 0 selects
	// runtime.GOMAXPROCS(0). One worker reproduces sequential
	// execution exactly.
	Workers int
	// Timeout bounds each run; 0 means no per-run deadline. The
	// deadline is carried by the task's context (cooperative).
	Timeout time.Duration
	// OnProgress, if set, is called after every run completes. Calls
	// are serialized; the callback must not block for long.
	OnProgress func(Progress)
	// OnStart, if set, is called just before a run begins executing,
	// with Label naming the starting run and Done counting runs
	// already finished. Calls are serialized with OnProgress; the
	// callback must not block for long.
	OnStart func(Progress)
}

// Metrics aggregates one pool invocation.
type Metrics struct {
	Runs       int
	Failed     int
	Workers    int
	Wall       time.Duration
	Throughput float64 // completed runs per host second
}

func (m Metrics) String() string {
	return fmt.Sprintf("%d runs (%d failed) on %d workers in %v (%.1f runs/s)",
		m.Runs, m.Failed, m.Workers, m.Wall.Round(time.Millisecond), m.Throughput)
}

// Run executes every task on a bounded worker pool and returns one
// Outcome per task, in submission order. It never returns a non-nil
// error slice-wide: per-run failures (including cancellations once ctx
// is done) are recorded in their slots, so a sweep always yields a
// complete, ordered account of what ran and what failed.
func Run[T any](ctx context.Context, tasks []Task[T], opts Options) ([]Outcome[T], Metrics) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) && len(tasks) > 0 {
		workers = len(tasks)
	}
	start := time.Now()
	outs := make([]Outcome[T], len(tasks))

	var (
		mu   sync.Mutex
		done int
		fail int
	)
	starting := func(i int) {
		if opts.OnStart == nil {
			return
		}
		mu.Lock()
		opts.OnStart(Progress{
			Done:    done,
			Total:   len(tasks),
			Failed:  fail,
			Label:   tasks[i].Label,
			Elapsed: time.Since(start),
		})
		mu.Unlock()
	}
	report := func(i int) {
		mu.Lock()
		done++
		if outs[i].Err != nil {
			fail++
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{
				Done:    done,
				Total:   len(tasks),
				Failed:  fail,
				Label:   outs[i].Label,
				Elapsed: time.Since(start),
			})
		}
		mu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				starting(i)
				outs[i] = runOne(ctx, i, tasks[i], opts.Timeout)
				report(i)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()

	wall := time.Since(start)
	m := Metrics{Runs: len(tasks), Failed: fail, Workers: workers, Wall: wall}
	if secs := wall.Seconds(); secs > 0 {
		m.Throughput = float64(len(tasks)-fail) / secs
	}
	return outs, m
}

// runOne executes a single task with cancellation, timeout, and panic
// containment.
func runOne[T any](ctx context.Context, i int, t Task[T], timeout time.Duration) (out Outcome[T]) {
	out = Outcome[T]{Index: i, Label: t.Label}
	if err := ctx.Err(); err != nil {
		out.Err = &Error{Index: i, Label: t.Label, Err: err}
		return out
	}
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		out.Wall = time.Since(start)
		if r := recover(); r != nil {
			// A watchdog, deadlock or thread-step panic from the
			// simulator lands here (the kernel and every thread step
			// run on this goroutine); keep the sweep alive and record
			// the failure in this run's slot.
			out.Err = &Error{Index: i, Label: t.Label, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	v, err := t.Run(runCtx)
	if err == nil && ctx.Err() == nil {
		// A body that ignores its context may have returned a value
		// after the per-run deadline passed; surface the timeout.
		// (Pool-wide cancellation, by contrast, keeps work that
		// completed before the cancel was observed.)
		err = runCtx.Err()
	}
	if err != nil {
		out.Err = &Error{Index: i, Label: t.Label, Err: err}
		return out
	}
	out.Value = v
	return out
}

// ProgressPrinter returns an OnProgress callback that rewrites one
// compact status line on w (intended for stderr) as runs complete,
// ending it with a newline when the pool drains.
func ProgressPrinter(w io.Writer, prefix string) func(Progress) {
	return func(p Progress) {
		fmt.Fprintf(w, "\r%s: %d/%d runs", prefix, p.Done, p.Total)
		if p.Failed > 0 {
			fmt.Fprintf(w, " (%d failed)", p.Failed)
		}
		if p.Done == p.Total {
			fmt.Fprintf(w, " in %v\n", p.Elapsed.Round(time.Millisecond))
		}
	}
}

// Workers resolves an Options.Workers-style count: values <= 0 select
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// FirstError returns the first failed outcome's error, or nil.
func FirstError[T any](outs []Outcome[T]) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// Values unwraps successful outcomes in submission order, returning the
// first failure alongside the values collected so far.
func Values[T any](outs []Outcome[T]) ([]T, error) {
	vals := make([]T, 0, len(outs))
	for _, o := range outs {
		if o.Err != nil {
			return vals, o.Err
		}
		vals = append(vals, o.Value)
	}
	return vals, nil
}
