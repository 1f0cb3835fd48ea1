package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile keeps the Go metric tables and
// BENCHMARK.json in step: same names, units and directions, same order.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		name      string
		file, own []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.own) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.file), len(c.own))
		}
		for i, d := range c.own {
			f := c.file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", c.name, i, f.Name, f.Unit, f.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if workloadFuncs[n] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", n)
		}
	}
	if len(names) != len(workloadFuncs) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloadFuncs))
	}
}

// tinyConfig is a workload at its smallest size: one round, one set-up.
func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 7, dur: time.Second, trace: trace,
		workers: 2, clients: 2, tiny: true, root: "..",
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		digest:   batchDigest, out: &bytes.Buffer{},
	}
}

// result is the decoded last line of a run.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, cfg *config) result {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, cfg.out)
	}
	line, err := resultLine(cfg, rep)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, cfg.out)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: each must pass its output checks and emit exactly its metric set
// with the right units, and a traced run must write a Chrome trace.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloadFuncs {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			r := runTiny(t, cfg)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed\n%s", name, trace, r.Correct, r.Failed, r.Attempted, cfg.out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if trace {
				checkChromeTrace(t, cfg.traceOut)
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatalf("%s: no trace events", path)
	}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("%s: bad event %+v", path, e)
		}
	}
}

// TestCorruptDigestFailsEveryRun proves the batch output check bites: a
// wrong expected digest fails every run of the pass.
func TestCorruptDigestFailsEveryRun(t *testing.T) {
	cfg := tinyConfig(t, "batch", false)
	cfg.digest = "0000"
	r := runTiny(t, cfg)
	if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Fatalf("corrupt digest: correct %v, %d of %d failed; want fail_ratio 1", r.Correct, r.Failed, r.Attempted)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Fatalf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "run", Start: 30, End: 70}, // overlaps the first
	}}
	st := tr.selfTimes()
	if st["pass"] != 40 || st["run"] != 80 {
		t.Fatalf("self times %v, want pass 40 and run 80", st)
	}
}
