// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// executes the corresponding experiment end-to-end and reports derived
// metrics alongside the usual ns/op:
//
//	BenchmarkTable1Config       — Table 1 rows
//	BenchmarkTable2Workloads    — Table 2 rows (builds every topology)
//	BenchmarkFigure1Latency     — Lc/Lv/Ls latency comparison
//	BenchmarkFigure7Trace       — §4.2 transaction tracing
//	BenchmarkFigure8Speedup     — speedups + geomeans
//	BenchmarkFigure9Breakdown   — consumer-line empty/non-empty cycles
//	BenchmarkFigure10Failure    — push failure rates
//	BenchmarkFigure10Bus        — bus utilization
//	BenchmarkFigure11Sensitivity— tuned-parameter sweep (FIR panel)
//	BenchmarkInlineOpt          — §4.3 inlining study
//	BenchmarkArea               — §4.5 area/power estimation
//	BenchmarkWorkload/<name>/<alg> — one run per matrix cell
//	BenchmarkMillionMessage     — open-loop traffic at message scale
//	                              (b.N = delivered messages; run with
//	                              -benchtime=1000000x for the full case)
package spamer_test

import (
	"context"
	"testing"

	"spamer"
	"spamer/internal/energy"
	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/swqueue"
	"spamer/internal/traffic"
	"spamer/internal/workloads"
)

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1Rows(); len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2Rows()
		if len(rows) != 9 { // header + 8 benchmarks
			b.Fatalf("rows = %d", len(rows))
		}
		// Building every topology exercises the Table 2 queue shapes.
		for _, w := range workloads.All() {
			sys := spamer.NewSystem(spamer.Config{})
			w.Build(sys, 1)
			sys.Kernel().Drain()
		}
	}
}

func BenchmarkFigure1Latency(b *testing.B) {
	var r = swqueue.RunFigure1()
	for i := 0; i < b.N; i++ {
		r = swqueue.RunFigure1()
	}
	b.ReportMetric(r.Lc, "Lc-cycles")
	b.ReportMetric(r.Lv, "Lv-cycles")
	b.ReportMetric(r.Ls, "Ls-cycles")
}

func BenchmarkFigure7Trace(b *testing.B) {
	var hindered, saving float64
	for i := 0; i < b.N; i++ {
		_, sum, _ := experiments.Figure7(spamer.AlgBaseline)
		hindered = float64(sum.Hindered)
		saving = float64(sum.TotalSavingTk)
	}
	b.ReportMetric(hindered, "hindered-txs")
	b.ReportMetric(saving, "saving-cycles")
}

// matrix runs the Figure 8-10 benchmark matrix at scale 1.
func matrix(b *testing.B) *experiments.Matrix {
	m, err := experiments.RunMatrixParallel(context.Background(), 1, harness.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkFigure8Speedup(b *testing.B) {
	var m *experiments.Matrix
	for i := 0; i < b.N; i++ {
		m = matrix(b)
	}
	b.ReportMetric(m.Geomean(spamer.AlgZeroDelay), "geomean-0delay")
	b.ReportMetric(m.Geomean(spamer.AlgAdaptive), "geomean-adapt")
	b.ReportMetric(m.Geomean(spamer.AlgTuned), "geomean-tuned")
}

func BenchmarkFigure9Breakdown(b *testing.B) {
	var empty float64
	for i := 0; i < b.N; i++ {
		m := matrix(b)
		empty = m.Results["FIR"][spamer.AlgBaseline].AvgEmptyTicks / 1e6
	}
	b.ReportMetric(empty, "FIR-VL-emptyMcycles")
}

func BenchmarkFigure10Failure(b *testing.B) {
	var zd float64
	for i := 0; i < b.N; i++ {
		m := matrix(b)
		zd = m.Results["incast"][spamer.AlgZeroDelay].FailureRate()
	}
	b.ReportMetric(zd*100, "incast-0delay-fail%")
}

func BenchmarkFigure10Bus(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		m := matrix(b)
		util = m.Results["pipeline"][spamer.AlgAdaptive].BusUtilization
	}
	b.ReportMetric(util*100, "pipeline-adapt-bus%")
}

func BenchmarkFigure11Sensitivity(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure11Parallel(context.Background(), "FIR", 1, harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		best = points[1].DelayNorm // SPAMeR(0delay)
	}
	b.ReportMetric(best, "FIR-0delay-delaynorm")
}

func BenchmarkInlineOpt(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.InlineStudyParallel(context.Background(), 1, harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.Speedup
		}
		mean = sum / float64(len(rows))
	}
	b.ReportMetric(mean, "mean-inline-speedup")
}

func BenchmarkArea(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		a := energy.Area(0)
		p := energy.Power(5.03)
		share = a.SRDShareOfSoC
		if !p.WithinPaper {
			b.Fatal("power bound violated")
		}
	}
	b.ReportMetric(share*100, "SRD-SoC-area%")
}

// BenchmarkAblationPredictors compares every implemented delay
// algorithm (paper trio + history/perceptron/profiled/dyntuned).
func BenchmarkAblationPredictors(b *testing.B) {
	var firBest float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PredictorStudyParallel(context.Background(), 1, harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Benchmark == "FIR" {
				firBest = r.Speedups["0delay"]
			}
		}
	}
	b.ReportMetric(firBest, "FIR-0delay-speedup")
}

// BenchmarkAblationTopology runs the hop-latency and channel sweeps the
// paper defers.
func BenchmarkAblationTopology(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SweepParallel(context.Background(), "FIR", spamer.AlgZeroDelay, []int{6, 12, 24, 48},
			func(c *spamer.Config, h int) { c.HopLatency = uint64(h) }, 1, harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, p := range pts {
			if p.Speedup > peak {
				peak = p.Speedup
			}
		}
		if _, err := experiments.SweepParallel(context.Background(), "halo", spamer.AlgZeroDelay, []int{1, 2, 4, 8},
			func(c *spamer.Config, n int) { c.BusChannels = n }, 1, harness.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(peak, "FIR-peak-speedup")
}

// BenchmarkTunerSearch runs the future-work per-benchmark parameter
// search on firewall.
func BenchmarkTunerSearch(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tune(context.Background(), "firewall", 1, 2, harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Improvement
	}
	b.ReportMetric(gain, "tuner-gain")
}

// BenchmarkWorkload runs each (benchmark, config) cell individually so
// per-cell simulation cost is visible.
func BenchmarkWorkload(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		for _, alg := range spamer.Configs() {
			alg := alg
			b.Run(w.Name+"/"+alg, func(b *testing.B) {
				var res spamer.Result
				for i := 0; i < b.N; i++ {
					res = w.Run(spamer.Config{Algorithm: alg, Deadline: 1 << 40}, 1)
				}
				b.ReportMetric(float64(res.Ticks), "sim-cycles")
				b.ReportMetric(float64(res.Pushed), "messages")
			})
		}
	}
}

// BenchmarkMillionMessage drives the open-loop traffic engine at
// message scale: a 2-stage chain paced by a seeded Poisson population
// of 16 users. b.N is the delivered message count — ns/op is the cost
// per message, so one million-message run is `-benchtime=1000000x`.
// It must report 0 allocs/op in steady state (setup allocations
// amortize below one per million messages). The sub-benchmark name
// keeps the result key stable across recorded BENCH_*.json files.
func BenchmarkMillionMessage(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		sh := workloads.Shape{
			Stages: 2, Messages: b.N, Lines: 4, Window: 8,
			Arrival: &traffic.Spec{Seed: 0xB6, MeanGap: 400, Users: 16},
		}
		w := sh.Workload()
		cfg := spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 40}
		b.ResetTimer()
		res := w.Run(cfg, 1)
		b.StopTimer()
		if res.Popped != uint64(b.N) {
			b.Fatalf("delivered %d messages, want %d", res.Popped, b.N)
		}
		b.ReportMetric(float64(res.Ticks)/float64(b.N), "sim-cycles/msg")
	})
}
