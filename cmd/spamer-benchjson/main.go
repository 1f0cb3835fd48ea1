// Command spamer-benchjson converts `go test -bench -benchmem` output
// into a machine-readable JSON file so the repository's performance
// trajectory is diffable across PRs (BENCH_<n>.json at the repo root,
// written by `make bench`).
//
// It reads the benchmark output on stdin, echoes it unchanged to stdout
// (so the human-readable stream survives the pipe), and writes a JSON
// object keyed by "<package>/<BenchmarkName>" to -out:
//
//	go test -bench=. -benchmem ./... | spamer-benchjson -out BENCH_4.json
//
// Sub-benchmarks keep their slash-separated names; the trailing
// -<GOMAXPROCS> suffix Go appends is stripped so keys stay stable across
// machines.
//
// -baseline OLD.json additionally prints a benchstat-style delta table
// (ns/op and allocs/op, old vs new, percent change) to stderr. The
// comparison is informational — it never affects the exit status — so
// CI can surface regressions without gating merges on noisy timings.
//
// -gate turns the comparison into a check: the exit status becomes
// nonzero when the SpecRun benchmark regresses more than -gate-pct in
// ns/op against the baseline, when any benchmark present in both runs
// allocates more per op than it used to, or when the MillionMessage
// hot path allocates at all. The bench-ci step is blocking, so the
// timing bar is deliberately narrow
// in scope and wide in tolerance (-gate-pct defaults to 25); the
// allocs/op checks are exact — counts don't jitter — and are the
// gate's primary teeth. -gate requires a readable -baseline: a missing
// or malformed baseline file is itself a gate failure, never a silent
// downgrade to the allocation checks alone.
//
// The JSON file carries an "env" header (gomaxprocs, numcpu, Go
// version) alongside the "benchmarks" map, so a baseline records the
// machine it was measured on; -baseline warns — never fails — when the
// baseline's core count differs from the current runner's, since
// timing deltas across different machines are not comparable. Files
// from before the header (flat benchmark maps) are still accepted as
// baselines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result. GoMaxProcs is the -N suffix
// Go appends to the benchmark name (stripped from the key so keys stay
// stable across machines, but kept here as a record of the run).
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	GoMaxProcs  int     `json:"gomaxprocs,omitempty"`
}

// Env records the machine a benchmark file was measured on.
type Env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"goversion"`
}

// File is the on-disk schema: an environment header plus the benchmark
// map. Pre-header files were the bare map; readBaseline accepts both.
type File struct {
	Env        Env              `json:"env"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func currentEnv() Env {
	return Env{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
}

var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("out", "BENCH.json", "output JSON path")
	baseline := flag.String("baseline", "", "prior BENCH_<n>.json to diff against (delta table on stderr; never fails the run)")
	gate := flag.Bool("gate", false, "exit nonzero on SpecRun ns/op regression past -gate-pct vs -baseline, any allocs/op increase, or a MillionMessage alloc")
	gatePct := flag.Float64("gate-pct", 25, "ns/op regression percentage -gate tolerates on SpecRun benchmarks")
	flag.Parse()

	entries := map[string]Entry{}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
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
		e := Entry{Iterations: iters, GoMaxProcs: procs}
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
		fmt.Fprintln(os.Stderr, "spamer-benchjson:", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "spamer-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamer-benchjson:", err)
		os.Exit(1)
	}
	// encoding/json sorts map keys, so the file is stable and diffable.
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(File{Env: currentEnv(), Benchmarks: entries}); err != nil {
		fmt.Fprintln(os.Stderr, "spamer-benchjson:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "spamer-benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "spamer-benchjson: wrote %d benchmarks to %s\n", len(entries), *out)
	var old map[string]Entry
	var oldErr error
	if *baseline != "" {
		old, oldErr = printDeltas(*baseline, entries)
	}
	if *gate {
		// A gate without a readable baseline would silently degrade to
		// the MillionMessage-allocs check alone — every regression bar
		// it exists for would pass vacuously. Refuse instead: a stale
		// BENCH_BASELINE (file renamed, not committed) must fail CI
		// loudly, not weaken it.
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "spamer-benchjson: GATE: -gate requires -baseline")
			os.Exit(1)
		}
		if oldErr != nil {
			fmt.Fprintf(os.Stderr, "spamer-benchjson: GATE: baseline %s unusable: %v\n", *baseline, oldErr)
			os.Exit(1)
		}
		if bad := gateViolations(old, entries, *gatePct); len(bad) > 0 {
			for _, v := range bad {
				fmt.Fprintln(os.Stderr, "spamer-benchjson: GATE:", v)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "spamer-benchjson: gate passed")
	}
}

// gateViolations applies the perf gate: SpecRun ns/op may not regress
// more than pct percent against the baseline, no benchmark may gain
// allocs/op, and MillionMessage must stay allocation-free (checked even
// without a baseline entry — the benchmark is newer than some
// baselines).
func gateViolations(old, entries map[string]Entry, pct float64) []string {
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
func printDeltas(path string, entries map[string]Entry) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spamer-benchjson: baseline:", err)
		return nil, err
	}
	var bf File
	var old map[string]Entry
	if err := json.Unmarshal(data, &bf); err == nil && bf.Benchmarks != nil {
		old = bf.Benchmarks
		// A baseline measured on a different core count makes every
		// timing delta a statement about the machines, not the code.
		// Warn — never fail — so cross-machine comparisons stay possible
		// but are visibly suspect.
		if bf.Env.NumCPU != 0 && bf.Env.NumCPU != runtime.NumCPU() {
			fmt.Fprintf(os.Stderr,
				"spamer-benchjson: WARNING: baseline %s was measured on %d CPUs, this runner has %d — ns/op deltas are not comparable\n",
				path, bf.Env.NumCPU, runtime.NumCPU())
		}
	} else if err := json.Unmarshal(data, &old); err != nil {
		// Pre-header schema: the file is the bare benchmark map.
		fmt.Fprintln(os.Stderr, "spamer-benchjson: baseline:", err)
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "\nvs %s:\n", path)
	fmt.Fprintf(os.Stderr, "%-64s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	for _, name := range names {
		e := entries[name]
		o, ok := old[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-64s %14s %14.0f %8s %10.0f\n", name, "-", e.NsPerOp, "new", e.AllocsPerOp)
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
		fmt.Fprintf(os.Stderr, "%-64s %14.0f %14.0f %8s %10s\n", name, o.NsPerOp, e.NsPerOp, delta, allocs)
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
		fmt.Fprintf(os.Stderr, "%-64s removed\n", name)
	}
	return old, nil
}
