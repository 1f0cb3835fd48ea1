package experiments

import (
	"context"
	"fmt"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/core"
	"spamer/internal/energy"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// This file holds the entry points that run simulations. A study is a
// list of runs, each a workload under one configuration, and runAll
// fans the list across the bounded worker pool of internal/harness.
// Every simulator run is an independent, deterministic spamer.System,
// so parallel execution with each result written into its own slot is
// observably identical to a sequential loop at any worker count.

// run is one simulation of a study: workload w under cfg, named by
// label in progress reports and errors.
type run struct {
	w     *workloads.Workload
	cfg   spamer.Config
	label string
}

// runAll executes runs at scale on the harness pool, each writing its
// Result into its own slot, and returns the slots in run order with the
// first failure in run order (a *harness.Error), or nil. A failed run's
// slot holds the zero Result. The simulator is CPU-bound and
// single-threaded per system: cancellation is honoured at dispatch (a
// cancelled run never starts) and a runaway system is bounded by the
// kernel watchdog, whose panic the harness turns into the run's error.
func runAll(ctx context.Context, runs []run, scale int, opts harness.Options) ([]spamer.Result, error) {
	results := make([]spamer.Result, len(runs))
	errs, _ := harness.Each(ctx, len(runs), opts,
		func(i int) string { return runs[i].label },
		func(_ context.Context, i int) error {
			results[i] = runs[i].w.Run(runs[i].cfg, scale)
			return nil
		})
	return results, firstErr(errs)
}

// firstErr returns the first failure of a harness.Each result in run
// order, or nil.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMatrixParallel executes every benchmark under every configuration
// on the harness pool: the common input of Figures 8, 9 and 10.
func RunMatrixParallel(ctx context.Context, scale int, opts harness.Options) (*Matrix, error) {
	m := &Matrix{
		Benchmarks: workloads.Names(),
		Configs:    spamer.Configs(),
		Results:    map[string]map[string]spamer.Result{},
	}
	runs := make([]run, 0, len(m.Benchmarks)*len(m.Configs))
	for _, w := range workloads.All() {
		for _, alg := range m.Configs {
			runs = append(runs, run{w, spamer.Config{Algorithm: alg}, w.Name + "/" + alg})
		}
	}
	results, err := runAll(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		if m.Results[r.w.Name] == nil {
			m.Results[r.w.Name] = map[string]spamer.Result{}
		}
		m.Results[r.w.Name][r.cfg.Algorithm] = results[i]
	}
	return m, nil
}

// Figure11Parallel sweeps one benchmark's Figure 11 points on the pool:
// the baseline, the three named algorithms, and the tuned-parameter
// grid all run concurrently. Points are normalized (delay, energy)
// pairs with the baseline as the (1, 1) reference.
func Figure11Parallel(ctx context.Context, benchName string, scale int, opts harness.Options) ([]Figure11Point, error) {
	w, ok := workloads.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", benchName)
	}
	named := []string{spamer.AlgZeroDelay, spamer.AlgAdaptive, spamer.AlgTuned}
	var grid []config.TunedParams
	for _, p := range Figure11Grid() {
		if p == config.DefaultTuned() {
			continue // already covered by the named tuned point
		}
		grid = append(grid, p)
	}

	runs := []run{{w, spamer.Config{Algorithm: spamer.AlgBaseline}, benchName + "/vl"}}
	for _, alg := range named {
		runs = append(runs, run{w, spamer.Config{Algorithm: alg}, benchName + "/" + alg})
	}
	for _, p := range grid {
		runs = append(runs, tunedRun(w, p))
	}
	results, err := runAll(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}

	base := results[0]
	points := []Figure11Point{{Label: "VL(baseline)", DelayNorm: 1, EnergyNorm: 1}}
	for i, alg := range named {
		points = append(points, normalized("SPAMeR("+alg+")", config.TunedParams{}, results[1+i], base))
	}
	for i, p := range grid {
		points = append(points, normalized("tuned{"+p.String()+"}", p, results[1+len(named)+i], base))
	}
	return points, nil
}

// tunedRun is w under the tuned algorithm with parameters p.
func tunedRun(w *workloads.Workload, p config.TunedParams) run {
	return run{w, spamer.Config{Algorithm: spamer.AlgTuned, Tuned: p}, w.Name + "/tuned{" + p.String() + "}"}
}

// normalized is the Figure 11 point of res against the baseline run
// base.
func normalized(label string, p config.TunedParams, res, base spamer.Result) Figure11Point {
	return Figure11Point{
		Label:      label,
		Params:     p,
		DelayNorm:  energy.DelayNorm(res, base),
		EnergyNorm: energy.EnergyNorm(res, base),
	}
}

// InlineStudyParallel measures the §4.3 library-inlining speedup per
// benchmark on the VL baseline, with the inlined and function-call
// variants of every benchmark in flight at once.
func InlineStudyParallel(ctx context.Context, scale int, opts harness.Options) ([]InlineStudyRow, error) {
	all := workloads.All()
	var runs []run
	for _, w := range all {
		runs = append(runs,
			run{w, spamer.Config{Algorithm: spamer.AlgBaseline, NoInline: true}, w.Name + "/called"},
			run{w, spamer.Config{Algorithm: spamer.AlgBaseline}, w.Name + "/inlined"})
	}
	results, err := runAll(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	var rows []InlineStudyRow
	for i, w := range all {
		called, inlined := results[2*i], results[2*i+1]
		rows = append(rows, InlineStudyRow{Benchmark: w.Name, Speedup: inlined.Speedup(called)})
	}
	return rows, nil
}

// PredictorStudyParallel runs every extended delay algorithm (paper
// trio + extensions) on every benchmark concurrently.
func PredictorStudyParallel(ctx context.Context, scale int, opts harness.Options) ([]PredictorRow, error) {
	all := workloads.All()
	algs := core.ExtendedAlgorithms()
	var runs []run
	for _, w := range all {
		runs = append(runs, run{w, spamer.Config{Algorithm: spamer.AlgBaseline}, w.Name + "/vl"})
		for _, alg := range algs {
			runs = append(runs, run{w, spamer.Config{Algorithm: "custom", CustomAlgorithm: alg}, w.Name + "/" + alg.Name()})
		}
	}
	results, err := runAll(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(algs)
	var rows []PredictorRow
	for i, w := range all {
		base := results[i*stride]
		row := PredictorRow{Benchmark: w.Name, Speedups: map[string]float64{}}
		for j, alg := range algs {
			row.Speedups[alg.Name()] = results[i*stride+1+j].Speedup(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SweepParallel runs a sensitivity sweep of bench: at each x, the VL
// baseline and alg, each configured by set, so the speedup at x is an
// apples-to-apples comparison.
func SweepParallel(ctx context.Context, bench, alg string, xs []int, set func(*spamer.Config, int), scale int, opts harness.Options) ([]SweepPoint, error) {
	w, ok := workloads.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	var runs []run
	for _, x := range xs {
		base, spec := spamer.Config{Algorithm: spamer.AlgBaseline}, spamer.Config{Algorithm: alg}
		set(&base, x)
		set(&spec, x)
		label := fmt.Sprintf("%s/x=%d/", bench, x)
		runs = append(runs, run{w, base, label + spamer.AlgBaseline}, run{w, spec, label + alg})
	}
	results, err := runAll(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(xs))
	for i, x := range xs {
		base, res := results[2*i], results[2*i+1]
		points[i] = SweepPoint{X: x, Ticks: res.Ticks, Speedup: res.Speedup(base)}
	}
	return points, nil
}

// ObfuscationStudyParallel measures the performance cost of the §3.6
// side-channel mitigation across benchmarks, with the plain/obfuscated
// pair of every benchmark in flight at once.
func ObfuscationStudyParallel(ctx context.Context, jitter uint64, scale int, opts harness.Options) ([]ObfuscationRow, error) {
	all := workloads.All()
	var runs []run
	for _, w := range all {
		runs = append(runs,
			run{w, spamer.Config{Algorithm: spamer.AlgTuned}, w.Name + "/plain"},
			run{w, spamer.Config{
				Algorithm:       "custom",
				CustomAlgorithm: core.Obfuscated{Inner: core.NewTuned(), Key: 0x5eed, MaxJitter: jitter},
			}, w.Name + "/obfuscated"})
	}
	results, err := runAll(ctx, runs, scale, opts)
	if err != nil {
		return nil, err
	}
	var rows []ObfuscationRow
	for i, w := range all {
		plain, obf := results[2*i], results[2*i+1]
		rows = append(rows, ObfuscationRow{
			Benchmark: w.Name,
			Jitter:    jitter,
			Plain:     plain.Ticks,
			Obf:       obf.Ticks,
			Overhead:  float64(obf.Ticks)/float64(plain.Ticks) - 1,
		})
	}
	return rows, nil
}

// SoftwareQueueStudyParallel runs both software-queue study workloads
// through all three stacks, the six independent builds concurrently.
// The builds are not workloads, so it calls the pool itself, each build
// writing its ticks into its own slot.
func SoftwareQueueStudyParallel(ctx context.Context, opts harness.Options) ([]SoftwareQueueStudyRow, error) {
	builds := [...]struct {
		label string
		ticks func() uint64
	}{
		{"chain3/sw", swChain},
		{"chain3/vl", func() uint64 { return hwChain(spamer.AlgBaseline) }},
		{"chain3/spamer", func() uint64 { return hwChain(spamer.AlgZeroDelay) }},
		{"incast4/sw", func() uint64 { return swIncast(nil) }},
		{"incast4/vl", func() uint64 { return hwIncast(spamer.AlgBaseline) }},
		{"incast4/spamer", func() uint64 { return hwIncast(spamer.AlgZeroDelay) }},
	}
	var ticks [len(builds)]uint64
	errs, _ := harness.Each(ctx, len(builds), opts,
		func(i int) string { return builds[i].label },
		func(_ context.Context, i int) error {
			ticks[i] = builds[i].ticks()
			return nil
		})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	rows := []SoftwareQueueStudyRow{
		{Workload: "chain3", SWTicks: ticks[0], VLTicks: ticks[1], SpTicks: ticks[2]},
		{Workload: "incast4", SWTicks: ticks[3], VLTicks: ticks[4], SpTicks: ticks[5]},
	}
	for i := range rows {
		r := &rows[i]
		r.VLOverSW = float64(r.SWTicks) / float64(r.VLTicks)
		r.SpOverSW = float64(r.SWTicks) / float64(r.SpTicks)
	}
	return rows, nil
}
