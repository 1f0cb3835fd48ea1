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
// Each is the one pool loop: it runs an index-addressed body, so a
// caller that writes each run's result into its own slot holds only its
// results, plus one error word per run once a run fails. Run adapts it
// to a task slice.
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
	Value T     // zero when Err != nil
	Err   error // nil on success, otherwise *Error
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
	outs := make([]Outcome[T], len(tasks))
	errs, m := Each(ctx, len(tasks), opts,
		func(i int) string { return tasks[i].Label },
		func(ctx context.Context, i int) (err error) {
			outs[i].Value, err = tasks[i].Run(ctx)
			return err
		})
	for i := range outs {
		outs[i].Index, outs[i].Label = i, tasks[i].Label
		if errs != nil && errs[i] != nil {
			var zero T
			outs[i].Value, outs[i].Err = zero, errs[i]
		}
	}
	return outs, m
}

// Each calls body(ctx, i) once for every i in [0, n) on a bounded worker
// pool, with Run's contract for each run: the per-run Timeout, panic
// containment, and a structured *Error naming the run's index and
// label(i). It returns the runs' errors indexed by i, or nil when every
// run succeeded, so a caller that writes each run's result into its own
// slot holds nothing else per run.
//
// Workers claim the next index under the lock that serializes OnStart
// and OnProgress, and the calling goroutine is one of them: a pool of
// one runs every body inline, in index order. A claim made once ctx is
// done records ctx.Err() instead of starting the run, so no run starts
// after cancellation while work that finished is kept. label is called
// only when a callback or an error needs the run's name.
func Each(ctx context.Context, n int, opts Options, label func(i int) string, body func(ctx context.Context, i int) error) ([]error, Metrics) {
	workers := Workers(opts.Workers)
	if n > 0 {
		workers = min(workers, n)
	}
	p := &pool{ctx: ctx, n: n, opts: opts, label: label, body: body, start: time.Now(),
		named: opts.OnStart != nil || opts.OnProgress != nil}
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	p.work()
	p.wg.Wait()

	wall := time.Since(p.start)
	m := Metrics{Runs: n, Failed: p.fail, Workers: workers, Wall: wall}
	if secs := wall.Seconds(); secs > 0 {
		m.Throughput = float64(n-p.fail) / secs
	}
	return p.errs, m
}

// pool is the state one Each call shares among its workers.
type pool struct {
	ctx   context.Context
	n     int
	opts  Options
	label func(int) string
	body  func(context.Context, int) error
	start time.Time
	named bool // a callback needs every run's label
	wg    sync.WaitGroup

	mu               sync.Mutex // guards the fields below and serializes the callbacks
	next, done, fail int
	errs             []error // allocated at the first failure
}

// work claims and runs indices until none is left.
func (p *pool) work() {
	for {
		p.mu.Lock()
		if p.next == p.n {
			p.mu.Unlock()
			return
		}
		i := p.next
		p.next++
		var name string
		if p.named {
			name = p.label(i)
		}
		if p.opts.OnStart != nil {
			p.opts.OnStart(p.progress(name))
		}
		err := p.ctx.Err()
		p.mu.Unlock()

		if err == nil {
			err = runOne(p.ctx, i, p.opts.Timeout, p.body)
		}
		if err != nil {
			if !p.named {
				name = p.label(i)
			}
			err = &Error{Index: i, Label: name, Err: err}
		}

		p.mu.Lock()
		p.done++
		if err != nil {
			p.fail++
			if p.errs == nil {
				p.errs = make([]error, p.n)
			}
			p.errs[i] = err
		}
		if p.opts.OnProgress != nil {
			p.opts.OnProgress(p.progress(name))
		}
		p.mu.Unlock()
	}
}

// progress snapshots the counts for a callback about run name; p.mu is
// held.
func (p *pool) progress(name string) Progress {
	return Progress{Done: p.done, Total: p.n, Failed: p.fail, Label: name, Elapsed: time.Since(p.start)}
}

// runOne runs body(i) under the per-run timeout, converting a panic into
// the run's error.
func runOne(ctx context.Context, i int, timeout time.Duration, body func(context.Context, int) error) (err error) {
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			// A watchdog, deadlock or thread-step panic from the
			// simulator lands here (the kernel and every thread step
			// run on this goroutine); keep the sweep alive and record
			// the failure in this run's slot.
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	err = body(runCtx, i)
	if err == nil {
		// A body that ignores its context may have returned after the
		// per-run deadline passed; surface the timeout. Pool-wide
		// cancellation, by contrast, keeps work that completed. The run
		// context is read first: a pool cancel that reached it has
		// already set ctx, so it is never taken for the deadline.
		if rerr := runCtx.Err(); rerr != nil && ctx.Err() == nil {
			err = rerr
		}
	}
	return err
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
