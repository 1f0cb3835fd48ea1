package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchEntry is one benchmark's parsed result. GoMaxProcs is the -N suffix
// Go appends to the benchmark name (stripped from the key so keys stay
// stable across machines, but kept here as a record of the run).
type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	GoMaxProcs  int     `json:"gomaxprocs,omitempty"`
}

// benchEnv records the machine a benchmark file was measured on.
type benchEnv struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"goversion"`
}

// benchFile is the on-disk schema: an environment header plus the benchmark
// map. Pre-header files were the bare map; printDeltas accepts both.
type benchFile struct {
	Env        benchEnv              `json:"env"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

func currentEnv() benchEnv {
	return benchEnv{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// benchjsonCmd converts `go test -bench -benchmem` output into a
// machine-readable JSON file so the repository's performance
// trajectory is diffable across changes (BENCH_<n>.json at the repo
// root, written by `make bench`). It reads the benchmark output on
// stdin, echoes it unchanged to stdout (so the human-readable stream
// survives the pipe), and writes a JSON object keyed by
// "<package>/<BenchmarkName>" to -out:
//
//	go test -bench=. -benchmem ./... | spamer benchjson -out BENCH_4.json
//
// Sub-benchmarks keep their slash-separated names; the trailing
// -<GOMAXPROCS> suffix Go appends is stripped so keys stay stable across
// machines. The file carries an "env" header (gomaxprocs, numcpu, Go
// version) alongside the "benchmarks" map, so a baseline records the
// machine it was measured on.
//
// -baseline OLD.json additionally prints a benchstat-style delta table
// (ns/op and allocs/op, old vs new, percent change) to stderr. The
// comparison is informational: it never affects the exit status.
//
// -gate turns the comparison into a check: the exit status becomes 1
// when the SpecRun benchmark regresses more than -gate-pct in ns/op
// against the baseline, when any benchmark present in both runs
// allocates more per op than it used to, or when the MillionMessage
// hot path allocates at all. The timing bar is deliberately narrow in
// scope and wide in tolerance; the allocs/op checks are exact (counts
// don't jitter) and are the gate's primary teeth. -gate requires a
// readable -baseline: a missing or malformed baseline is itself a gate
// failure, never a silent downgrade to the allocation checks alone.
func benchjsonCmd(c *cli) error {
	out := c.flags.String("out", "BENCH.json", "output JSON path")
	baseline := c.flags.String("baseline", "", "prior BENCH_<n>.json to diff against (delta table on stderr; never fails the run)")
	gate := c.flags.Bool("gate", false, "exit nonzero on SpecRun ns/op regression past -gate-pct vs -baseline, any allocs/op increase, or a MillionMessage alloc")
	gatePct := c.flags.Float64("gate-pct", 25, "ns/op regression percentage -gate tolerates on SpecRun benchmarks")
	if err := c.parse(); err != nil {
		return err
	}

	entries := map[string]benchEntry{}
	pkg := ""
	sc := bufio.NewScanner(c.stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(c.stdout, line)
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs, _ := strconv.Atoi(m[2])
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		e := benchEntry{Iterations: iters, GoMaxProcs: procs}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		key := m[1]
		if pkg != "" {
			key = pkg + "/" + m[1]
		}
		entries[key] = e
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	if err := writeBenchFile(*out, entries); err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "%s: wrote %d benchmarks to %s\n", c.name, len(entries), *out)

	var old map[string]benchEntry
	var oldErr error
	if *baseline != "" {
		old, oldErr = printDeltas(c, *baseline, entries)
	}
	if !*gate {
		return nil
	}
	// A gate without a readable baseline would silently degrade to the
	// MillionMessage-allocs check alone: every regression bar it exists
	// for would pass vacuously. A stale BENCH_BASELINE (file renamed,
	// not committed) must fail CI loudly, not weaken it.
	if *baseline == "" {
		return fmt.Errorf("GATE: -gate requires -baseline")
	}
	if oldErr != nil {
		return fmt.Errorf("GATE: baseline %s unusable: %v", *baseline, oldErr)
	}
	if bad := gateViolations(old, entries, *gatePct); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintf(c.stderr, "%s: GATE: %s\n", c.name, v)
		}
		return exitStatus(1)
	}
	fmt.Fprintf(c.stderr, "%s: gate passed\n", c.name)
	return nil
}

// writeBenchFile writes entries under the current machine's env header.
// encoding/json sorts map keys, so the file is stable and diffable.
func writeBenchFile(path string, entries map[string]benchEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{Env: currentEnv(), Benchmarks: entries}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gateViolations applies the perf gate: SpecRun ns/op may not regress
// more than pct percent against the baseline, no benchmark may gain
// allocs/op, and MillionMessage must stay allocation-free (checked even
// without a baseline entry — the benchmark is newer than some
// baselines).
func gateViolations(old, entries map[string]benchEntry, pct float64) []string {
	var bad []string
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := entries[name]
		if strings.Contains(name, "MillionMessage/") && e.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("%s allocates %.0f/op; the message hot path must be allocation-free", name, e.AllocsPerOp))
		}
		o, ok := old[name]
		if !ok {
			continue
		}
		if strings.Contains(name, "SpecRun") && o.NsPerOp > 0 && e.NsPerOp > o.NsPerOp*(1+pct/100) {
			bad = append(bad, fmt.Sprintf("%s regressed %.1f%% ns/op (%.0f -> %.0f)", name, (e.NsPerOp-o.NsPerOp)/o.NsPerOp*100, o.NsPerOp, e.NsPerOp))
		}
		if e.AllocsPerOp > o.AllocsPerOp {
			bad = append(bad, fmt.Sprintf("%s allocs/op rose %.0f -> %.0f", name, o.AllocsPerOp, e.AllocsPerOp))
		}
	}
	return bad
}

// printDeltas renders a benchstat-style comparison of entries against a
// prior BENCH_<n>.json on stderr and returns the parsed baseline for
// the optional gate. A read or parse failure is reported on stderr and
// returned: without -gate it stays informational (the delta table is a
// diagnostic), with -gate the caller turns it into a hard failure so a
// missing baseline cannot silently weaken the check.
func printDeltas(c *cli, path string, entries map[string]benchEntry) (map[string]benchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(c.stderr, "%s: baseline: %v\n", c.name, err)
		return nil, err
	}
	var bf benchFile
	var old map[string]benchEntry
	if err := json.Unmarshal(data, &bf); err == nil && bf.Benchmarks != nil {
		old = bf.Benchmarks
		// A baseline measured on a different core count makes every
		// timing delta a statement about the machines, not the code.
		// Warn — never fail — so cross-machine comparisons stay possible
		// but are visibly suspect.
		if bf.Env.NumCPU != 0 && bf.Env.NumCPU != runtime.NumCPU() {
			fmt.Fprintf(c.stderr,
				"%s: WARNING: baseline %s was measured on %d CPUs, this runner has %d — ns/op deltas are not comparable\n",
				c.name, path, bf.Env.NumCPU, runtime.NumCPU())
		}
	} else if err := json.Unmarshal(data, &old); err != nil {
		// Pre-header schema: the file is the bare benchmark map.
		fmt.Fprintf(c.stderr, "%s: baseline: %v\n", c.name, err)
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(c.stderr, "\nvs %s:\n", path)
	fmt.Fprintf(c.stderr, "%-64s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	for _, name := range names {
		e := entries[name]
		o, ok := old[name]
		if !ok {
			fmt.Fprintf(c.stderr, "%-64s %14s %14.0f %8s %10.0f\n", name, "-", e.NsPerOp, "new", e.AllocsPerOp)
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (e.NsPerOp-o.NsPerOp)/o.NsPerOp*100)
		}
		allocs := fmt.Sprintf("%.0f", e.AllocsPerOp)
		if e.AllocsPerOp != o.AllocsPerOp {
			allocs = fmt.Sprintf("%.0f->%.0f", o.AllocsPerOp, e.AllocsPerOp)
		}
		fmt.Fprintf(c.stderr, "%-64s %14.0f %14.0f %8s %10s\n", name, o.NsPerOp, e.NsPerOp, delta, allocs)
	}
	// Report disappeared benchmarks only for packages this run actually
	// benchmarked: bench-ci compares a package subset against the full
	// baseline, and flagging every out-of-scope benchmark as "removed"
	// would drown the table.
	ranPkg := map[string]bool{}
	for name := range entries {
		ranPkg[name[:strings.LastIndex(name, "/")]] = true
	}
	removed := make([]string, 0)
	for name := range old {
		if i := strings.LastIndex(name, "/"); i >= 0 && ranPkg[name[:i]] {
			if _, ok := entries[name]; !ok {
				removed = append(removed, name)
			}
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(c.stderr, "%-64s removed\n", name)
	}
	return old, nil
}
