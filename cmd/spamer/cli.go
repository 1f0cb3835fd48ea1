package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// cli is one subcommand invocation: its streams, its flags, and the
// shared flags (-parallel, -cpuprofile, -memprofile) the subcommand
// registered.
type cli struct {
	name           string // "spamer <subcommand>", the prefix of its diagnostics
	ctx            context.Context
	stdin          io.Reader
	stdout, stderr io.Writer
	flags          *flag.FlagSet
	args           []string

	workers    int // -parallel
	cpuprofile string
	memprofile string
}

// parse parses the subcommand's flags. -h returns flag.ErrHelp (exit
// 0); a bad flag exits 2 after the flag package has printed the error
// and the flag list.
func (c *cli) parse() error {
	err := c.flags.Parse(c.args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return exitStatus(2)
}

// exitError sets an exit status other than 1. A nil err means whatever
// explains the status was already written.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return fmt.Sprintf("exit status %d: %v", e.code, e.err) }

// exitStatus fails with code without printing anything further.
func exitStatus(code int) error { return &exitError{code: code} }

// usagef reports an invalid invocation: one stderr line, exit 2.
func usagef(format string, args ...any) error {
	return &exitError{code: 2, err: fmt.Errorf(format, args...)}
}

// exitCode is the one error-to-exit-status path: nil and -h exit 0, an
// exitError its own code, and any other error prints one line and
// exits 1.
func (c *cli) exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	code := 1
	var ee *exitError
	if errors.As(err, &ee) {
		code, err = ee.code, ee.err
	}
	if err != nil {
		fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
	}
	return code
}

const parallelUsage = "worker pool size (0 = GOMAXPROCS)"

// addParallel registers -parallel, the width of the harness pool.
func (c *cli) addParallel(usage string) {
	c.flags.IntVar(&c.workers, "parallel", 0, usage)
}

// pool returns harness options for the -parallel pool. A non-empty
// prefix prints progress lines under it on stderr.
func (c *cli) pool(prefix string) harness.Options {
	opts := harness.Options{Workers: c.workers}
	if prefix != "" {
		opts.OnProgress = harness.ProgressPrinter(c.stderr, prefix)
	}
	return opts
}

// interruptible returns the invocation's context, cancelled by the first
// SIGINT or SIGTERM, for a batch that should stop starting runs when
// asked to: the pool then fails every unstarted run with
// context.Canceled while the runs in flight finish. The first signal
// also restores the default action, so a second one ends the process.
// Call stop when the batch is over.
func (c *cli) interruptible() (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = signal.NotifyContext(c.ctx, os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// addProfileFlags registers -cpuprofile and -memprofile.
func (c *cli) addProfileFlags() {
	c.flags.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	c.flags.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file")
}

// profiled runs body under the -cpuprofile CPU profile, stops that
// profile, then writes the -memprofile heap profile, so the CPU profile
// covers body alone. A profile that cannot be written is an error:
// silently missing one defeats the point of asking for it.
//
//	spamer run -spec x.json -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
func (c *cli) profiled(body func() error) error {
	stopCPU := func() error { return nil }
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopCPU = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	err := body()
	if cerr := stopCPU(); err == nil {
		err = cerr
	}
	if err != nil || c.memprofile == "" {
		return err
	}
	f, err := os.Create(c.memprofile)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSpecs reads one spec or an array from path ("-" reads stdin) and
// resolves stage replay_file references against the spec file's
// directory (the working directory for stdin) before anything runs, so
// the content hash always covers the resolved trace.
func (c *cli) loadSpecs(path string) ([]experiments.Spec, error) {
	r, dir := c.stdin, "."
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, dir = f, filepath.Dir(path)
	}
	specs, err := experiments.ReadSpecs(r)
	if err != nil {
		return nil, err
	}
	if err := experiments.ResolveTraceFiles(specs, dir); err != nil {
		return nil, err
	}
	return specs, nil
}

// serveUntilSignal serves hs until it fails or SIGTERM/SIGINT arrives.
// On a signal it runs drain, bounded by timeout, to finish the admitted
// work named by inflight, then shuts hs down. An incomplete drain
// closes hs and fails the command.
func (c *cli) serveUntilSignal(hs *http.Server, timeout time.Duration, inflight string, drain func(context.Context) error) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(c.stderr, "%s: %v: draining (finishing %s, up to %v)\n", c.name, sig, inflight, timeout)
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := drain(ctx); err != nil {
			hs.Close()
			return fmt.Errorf("drain incomplete: %w", err)
		}
		hs.Shutdown(ctx)
		fmt.Fprintf(c.stderr, "%s: drained cleanly\n", c.name)
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
