package experiments

import (
	"context"
	"reflect"
	"testing"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// Golden event-dispatch trace hashes, recorded on the seed kernel
// (container/heap event queue, commit d76fd36) for a small
// Figure-11-style configuration: the FIR benchmark at scale 1 under the
// VL baseline and under the tuned algorithm at a non-default sweep grid
// point (ζ=512, τ=96, δ=64, α=1, β=2). The calendar-queue kernel must
// dispatch the exact same (tick, seq) sequence; any reordering — even
// one that yields the same end-to-end timing — changes the hash and
// fails the test.
const (
	goldenTraceFIRVL    = 0x19a8e9e6106baf46
	goldenTraceFIRTuned = 0x930283fd156c0137
	goldenTicksFIRVL    = 130913
	goldenTicksFIRTuned = 96727
)

// Golden sequential dispatch-trace hashes for the incast benchmark —
// the asymmetric (4:1 fan-in) counterpart to the 1:1 FIR chain above,
// pinning the multi-consumer-line arbitration and producer-window paths
// the chain never exercises. Recorded on the sequential kernel at
// default hardware knobs.
const (
	goldenTraceIncastVL     = 0xe4b4310410456682
	goldenTraceIncast0Delay = 0x57d6cf8005f51e07
	goldenTicksIncastVL     = 220879
	goldenTicksIncast0Delay = 146506
)

// fnv1aPair folds one (tick, seq) pair into an FNV-1a style hash
// without allocating.
func fnv1aPair(h, tick, seq uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (tick >> (8 * i) & 0xff)) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (seq >> (8 * i) & 0xff)) * prime
	}
	return h
}

// runTraced runs the golden FIR configuration under alg with a dispatch
// observer attached, returning the trace hash and the result.
func runTraced(t testing.TB, alg string) (uint64, spamer.Result) {
	t.Helper()
	w, ok := workloads.ByName("FIR")
	if !ok {
		t.Fatal("FIR workload missing")
	}
	cfg := spamer.Config{
		Algorithm: alg,
		Tuned:     config.TunedParams{Zeta: 512, Tau: 96, Delta: 64, Alpha: 1, Beta: 2},
	}
	sys := spamer.NewSystem(cfg)
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	sys.Kernel().SetDispatchObserver(func(tick, seq uint64) {
		h = fnv1aPair(h, tick, seq)
	})
	w.Build(sys, 1)
	res := sys.Run()
	return h, res
}

// TestGoldenDispatchTrace proves the event queue dispatches bit-identically
// to the seed kernel's (tick, seq) order on a full experiment run.
func TestGoldenDispatchTrace(t *testing.T) {
	for _, tc := range []struct {
		alg   string
		hash  uint64
		ticks uint64
	}{
		{spamer.AlgBaseline, goldenTraceFIRVL, goldenTicksFIRVL},
		{spamer.AlgTuned, goldenTraceFIRTuned, goldenTicksFIRTuned},
	} {
		h, res := runTraced(t, tc.alg)
		if h != tc.hash {
			t.Errorf("%s: dispatch trace hash = %#x, golden %#x (event order diverged from seed kernel)",
				tc.alg, h, tc.hash)
		}
		if res.Ticks != tc.ticks {
			t.Errorf("%s: ticks = %d, golden %d", tc.alg, res.Ticks, tc.ticks)
		}
	}
}

// TestGoldenIncastTrace pins the sequential dispatch trace of the
// asymmetric incast benchmark (four producers funneling into one
// 32-line consumer) under the baseline and the zero-delay speculative
// configuration.
func TestGoldenIncastTrace(t *testing.T) {
	w, ok := workloads.ByName("incast")
	if !ok {
		t.Fatal("incast workload missing")
	}
	for _, tc := range []struct {
		alg   string
		hash  uint64
		ticks uint64
	}{
		{spamer.AlgBaseline, goldenTraceIncastVL, goldenTicksIncastVL},
		{spamer.AlgZeroDelay, goldenTraceIncast0Delay, goldenTicksIncast0Delay},
	} {
		sys := spamer.NewSystem(spamer.Config{Algorithm: tc.alg})
		sys.EnableDispatchTrace()
		w.Build(sys, 1)
		res := sys.Run()
		if h := sys.DispatchTraceHash(); h != tc.hash {
			t.Errorf("%s: incast dispatch trace hash = %#x, golden %#x", tc.alg, h, tc.hash)
		}
		if res.Ticks != tc.ticks {
			t.Errorf("%s: incast ticks = %d, golden %d", tc.alg, res.Ticks, tc.ticks)
		}
	}
}

// TestGoldenParallelInvariance runs the same Figure-11-style spec through
// the parallel harness at 1 and 8 workers: the report output (outcomes)
// must be identical — worker count is an execution detail, never a
// result, and every per-worker kernel must reproduce the same trace.
func TestGoldenParallelInvariance(t *testing.T) {
	specs := []Spec{{
		Benchmark:  "FIR",
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgTuned},
		Tuned:      &TunedSpec{Zeta: 512, Tau: 96, Delta: 64, Alpha: 1, Beta: 2},
		Repeat:     2,
	}}
	run := func(workers int) []Outcome {
		results := RunSpecsParallel(context.Background(), specs, harness.Options{Workers: workers})
		var all []Outcome
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: %v", workers, r.Err)
			}
			all = append(all, r.Outcomes...)
		}
		return all
	}
	p1, p8 := run(1), run(8)
	if !reflect.DeepEqual(p1, p8) {
		t.Fatalf("outcomes differ between -parallel 1 and -parallel 8:\n%+v\nvs\n%+v", p1, p8)
	}
	for _, o := range p1 {
		if o.Deterministic == nil || !*o.Deterministic {
			t.Fatalf("outcome %s/%s not deterministic across repeats", o.Benchmark, o.Algorithm)
		}
		var want uint64
		switch o.Algorithm {
		case spamer.AlgBaseline:
			want = goldenTicksFIRVL
		case spamer.AlgTuned:
			want = goldenTicksFIRTuned
		}
		if o.Ticks != want {
			t.Fatalf("%s: ticks = %d, golden %d", o.Algorithm, o.Ticks, want)
		}
	}
}
