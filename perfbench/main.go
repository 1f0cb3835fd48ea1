// Command perfbench is the repository benchmark. It drives the simulator's
// public API from outside — spamer.NewSystem, Workload.Build and
// System.Run; experiments.RunSpecsParallel, Spec.Canonical/Hash and
// harness.Run; the service HTTP handler with a fabric coordinator and an
// in-process worker — on three workloads:
//
//	batch    the Figure-8 matrix plus the scenarios/ DAG specs on a
//	         harness pool (what a researcher waits on)
//	stream   one open-loop million-message simulation (the event kernel)
//	service  two closed-loop clients submitting cold and cache-hit jobs
//	         over HTTP, results over SSE
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload batch|stream|service --seed N --seconds S --trace 0|1
//	          [--workers N] [--clients N]
//
// It prints every metric by name and unit, checks every output, and ends
// with one JSON line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Every simulation uses the sequential reference kernel (Domains = 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration // length of the timed phase
	trace    bool
	workers  int // harness pool width (batch)
	clients  int // closed-loop clients (service)
	tiny     bool
	root     string // checkout root: scenarios/ is read from here
	traceOut string
	digest   string // expected batch outcome digest
	out      io.Writer
}

// report is what one workload measured. attempted/failed count the
// workload's operations; values holds every metric it measured, keyed by
// name; notes carries sample counts shown next to percentiles.
type report struct {
	attempted, failed int64
	values            map[string]float64
	notes             map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// setTail records a tail metric with its percentile and sample count.
func (r *report) setTail(name string, xs []float64) {
	v, p := tail(xs)
	r.set(name, v)
	r.note(name, "p%.1f of n=%d", p, len(xs))
}

var workloadFuncs = map[string]func(*config) (*report, error){
	"batch":   runBatch,
	"stream":  runStream,
	"service": runService,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := resultLine(cfg, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{out: os.Stdout, digest: batchDigest}
	secs := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workload, "workload", "", "batch, stream or service")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "harness pool width (at most nproc)")
	fs.IntVar(&cfg.clients, "clients", min(2, runtime.NumCPU()), "service clients (at most nproc)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloadFuncs[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown --workload %q (batch, stream, service)", cfg.workload)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return nil, fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if n := runtime.NumCPU(); cfg.workers < 1 || cfg.workers > n || cfg.clients < 1 || cfg.clients > n {
		return nil, fmt.Errorf("--workers %d and --clients %d must be within 1..nproc (%d)", cfg.workers, cfg.clients, n)
	}
	cfg.dur = time.Duration(*secs) * time.Second
	cfg.trace = *trace == 1
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cfg.root = wd
	cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", cfg.workload, cfg.seed))
	return cfg, nil
}

// run executes the workload and prints the human-readable report.
func run(cfg *config) (*report, error) {
	h := hostInfo(cfg)
	fmt.Fprintf(cfg.out, "host: %s\n", mustJSON(h))
	rep, err := workloadFuncs[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	rep.set("max_rss_mb", maxRSSMB())
	rep.set("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.note("fail_ratio", "%d of %d failed", rep.failed, rep.attempted)
	printReport(cfg, rep)
	return rep, nil
}

func hostInfo(cfg *config) map[string]any {
	host, _ := os.Hostname() // diagnostic only
	return map[string]any{
		"hostname": host, "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.dur.Seconds(),
		"trace": cfg.trace, "workers": cfg.workers, "clients": cfg.clients, "domains": 0,
	}
}

func printReport(cfg *config, rep *report) {
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.out, "%s: %d operations attempted, %d failed\n", cfg.workload, rep.attempted, rep.failed)
	for _, n := range names {
		d, _ := findDef(n)
		line := fmt.Sprintf("  %-24s %14.6g %-6s (%s is better; layer %s)", n, rep.values[n], d.Unit, d.Better, d.Layer)
		if note := rep.notes[n]; note != "" {
			line += " [" + note + "]"
		}
		fmt.Fprintln(cfg.out, line)
	}
}

// resultLine builds the final JSON line: end-to-end metrics untraced,
// per-layer metrics traced. A metric the workload did not measure
// reports 0; an end-to-end metric must never be 0.
func resultLine(cfg *config, rep *report) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := rep.values[d.Name]
		if !cfg.trace && v == 0 {
			return nil, fmt.Errorf("end-to-end metric %s measured 0", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

// setupReps is how many times a workload sets up; setup_s is the median.
func setupReps(cfg *config) int {
	if cfg.tiny {
		return 1
	}
	return 25
}

// phaseDur is the length of one timed phase: the whole budget untraced;
// half untraced and half traced in a traced run.
func phaseDur(cfg *config) time.Duration {
	if cfg.trace {
		return cfg.dur / 2
	}
	return cfg.dur
}

// finishTrace reports the tracing overhead (traced wall_s against the
// untraced wall_s of the same run), prints the self-time split and
// writes the spans out.
func finishTrace(cfg *config, rep *report, tr *tracer, tracedWall float64) error {
	rep.set("trace.overhead_ratio", tracedWall/rep.values["wall_s"]-1)
	rep.note("trace.overhead_ratio", "traced wall %.4g s vs untraced %.4g s", tracedWall, rep.values["wall_s"])
	tr.printSelfTimes(cfg.out)
	if err := tr.writeChrome(cfg.traceOut, hostInfo(cfg)); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(cfg.out, "trace: spans written to %s\n", cfg.traceOut)
	return nil
}

// maxRSSMB reports the process's peak resident set size (VmHWM). Unlike
// getrusage, it does not inherit the high-water mark of the shell that
// exec'd the benchmark.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// memDelta measures Go allocations and GC cycles around fn.
func memDelta(fn func()) (mallocs, bytes, gcs uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC)
}
