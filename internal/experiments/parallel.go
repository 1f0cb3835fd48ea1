package experiments

import (
	"context"
	"fmt"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/core"
	"spamer/internal/energy"
	"spamer/internal/harness"
	"spamer/internal/vl"
	"spamer/internal/workloads"
)

// This file holds the entry points that run simulations, each fanned
// across the bounded worker pool of internal/harness. Every simulator
// run is an independent, deterministic spamer.System, so parallel
// execution with ordered result assembly is observably identical to a
// sequential loop at any worker count.

// runTask wraps one workload run as a harness task. The simulator is
// CPU-bound and single-threaded per system; cancellation is honoured at
// dispatch (a cancelled task never starts) and runaway systems are
// bounded by the kernel watchdog, whose panic the harness converts into
// the run's structured error.
func runTask(w *workloads.Workload, cfg spamer.Config, scale int, label string) harness.Task[spamer.Result] {
	return harness.Task[spamer.Result]{
		Label: label,
		Run: func(ctx context.Context) (spamer.Result, error) {
			return w.Run(cfg, scale), nil
		},
	}
}

// RunMatrixParallel executes every benchmark under every configuration
// on the harness pool: the common input of Figures 8, 9 and 10.
func RunMatrixParallel(ctx context.Context, scale int, opts harness.Options) (*Matrix, error) {
	m := &Matrix{
		Benchmarks: workloads.Names(),
		Configs:    spamer.Configs(),
		Results:    map[string]map[string]spamer.Result{},
	}
	type cell struct{ bench, alg string }
	var cells []cell
	var tasks []harness.Task[spamer.Result]
	for _, w := range workloads.All() {
		for _, alg := range m.Configs {
			cells = append(cells, cell{w.Name, alg})
			tasks = append(tasks, runTask(w,
				spamer.Config{Algorithm: alg, Deadline: 1 << 40}, scale, w.Name+"/"+alg))
		}
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	for i, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		c := cells[i]
		if m.Results[c.bench] == nil {
			m.Results[c.bench] = map[string]spamer.Result{}
		}
		m.Results[c.bench][c.alg] = o.Value
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

	tasks := []harness.Task[spamer.Result]{
		runTask(w, spamer.Config{Algorithm: spamer.AlgBaseline, Deadline: 1 << 40}, scale, benchName+"/vl"),
	}
	for _, alg := range named {
		tasks = append(tasks, runTask(w,
			spamer.Config{Algorithm: alg, Deadline: 1 << 40}, scale, benchName+"/"+alg))
	}
	for _, p := range grid {
		tasks = append(tasks, runTask(w,
			spamer.Config{Algorithm: spamer.AlgTuned, Tuned: p, Deadline: 1 << 40}, scale,
			benchName+"/tuned{"+p.String()+"}"))
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	results, err := harness.Values(outs)
	if err != nil {
		return nil, err
	}

	base := results[0]
	points := []Figure11Point{{Label: "VL(baseline)", DelayNorm: 1, EnergyNorm: 1}}
	for i, alg := range named {
		res := results[1+i]
		points = append(points, Figure11Point{
			Label:      "SPAMeR(" + alg + ")",
			DelayNorm:  energy.DelayNorm(res, base),
			EnergyNorm: energy.EnergyNorm(res, base),
		})
	}
	for i, p := range grid {
		res := results[1+len(named)+i]
		points = append(points, Figure11Point{
			Label:      "tuned{" + p.String() + "}",
			Params:     p,
			DelayNorm:  energy.DelayNorm(res, base),
			EnergyNorm: energy.EnergyNorm(res, base),
		})
	}
	return points, nil
}

// InlineStudyParallel measures the §4.3 library-inlining speedup per
// benchmark on the VL baseline, with the inlined and function-call
// variants of every benchmark in flight at once.
func InlineStudyParallel(ctx context.Context, scale int, opts harness.Options) ([]InlineStudyRow, error) {
	all := workloads.All()
	var tasks []harness.Task[spamer.Result]
	for _, w := range all {
		tasks = append(tasks,
			runTask(w, spamer.Config{Algorithm: spamer.AlgBaseline, NoInline: true, Deadline: 1 << 40}, scale, w.Name+"/called"),
			runTask(w, spamer.Config{Algorithm: spamer.AlgBaseline, Deadline: 1 << 40}, scale, w.Name+"/inlined"))
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	results, err := harness.Values(outs)
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
	var tasks []harness.Task[spamer.Result]
	for _, w := range all {
		tasks = append(tasks, runTask(w,
			spamer.Config{Algorithm: spamer.AlgBaseline, Deadline: 1 << 40}, scale, w.Name+"/vl"))
		for _, alg := range algs {
			tasks = append(tasks, runTask(w,
				spamer.Config{Algorithm: "custom", CustomAlgorithm: alg, Deadline: 1 << 40}, scale,
				w.Name+"/"+alg.Name()))
		}
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	results, err := harness.Values(outs)
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

// sweepParallel runs one sweep point per task; each task pairs the
// baseline and SPAMeR runs so the speedup stays an apples-to-apples
// comparison at the same x.
func sweepParallel(ctx context.Context, bench string, xs []int,
	cfgs func(x int) (base, spec spamer.Config), scale int, opts harness.Options) ([]SweepPoint, error) {
	w, ok := workloads.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	var tasks []harness.Task[SweepPoint]
	for _, x := range xs {
		x := x
		tasks = append(tasks, harness.Task[SweepPoint]{
			Label: fmt.Sprintf("%s/x=%d", bench, x),
			Run: func(ctx context.Context) (SweepPoint, error) {
				baseCfg, specCfg := cfgs(x)
				base := w.Run(baseCfg, scale)
				res := w.Run(specCfg, scale)
				return SweepPoint{X: x, Ticks: res.Ticks, Speedup: res.Speedup(base)}, nil
			},
		})
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	return harness.Values(outs)
}

// SRDEntriesSweepParallel varies the routing-device structure sizes on
// a benchmark, with the tuned algorithm (firewall exercises
// backpressure at small sizes; halo needs >= 48 linkTab rows).
func SRDEntriesSweepParallel(ctx context.Context, bench string, sizes []int, scale int, opts harness.Options) ([]SweepPoint, error) {
	return sweepParallel(ctx, bench, sizes, func(n int) (spamer.Config, spamer.Config) {
		cfg := vl.Config{ProdEntries: n, ConsEntries: n, LinkEntries: max(n, 64)}
		return spamer.Config{Algorithm: spamer.AlgBaseline, SRD: cfg, Deadline: 1 << 40},
			spamer.Config{Algorithm: spamer.AlgTuned, SRD: cfg, Deadline: 1 << 40}
	}, scale, opts)
}

// HopLatencySweepParallel varies the one-way core<->device hop latency
// — the topology dimension the paper defers ("the impact of topology
// ... are not the focus of this paper").
func HopLatencySweepParallel(ctx context.Context, bench string, hops []uint64, scale int, opts harness.Options) ([]SweepPoint, error) {
	xs := make([]int, len(hops))
	for i, h := range hops {
		xs[i] = int(h)
	}
	return sweepParallel(ctx, bench, xs, func(h int) (spamer.Config, spamer.Config) {
		return spamer.Config{Algorithm: spamer.AlgBaseline, HopLatency: uint64(h), Deadline: 1 << 40},
			spamer.Config{Algorithm: spamer.AlgZeroDelay, HopLatency: uint64(h), Deadline: 1 << 40}
	}, scale, opts)
}

// BusChannelsSweepParallel varies the interconnect parallelism.
func BusChannelsSweepParallel(ctx context.Context, bench string, channels []int, scale int, opts harness.Options) ([]SweepPoint, error) {
	return sweepParallel(ctx, bench, channels, func(c int) (spamer.Config, spamer.Config) {
		return spamer.Config{Algorithm: spamer.AlgBaseline, BusChannels: c, Deadline: 1 << 40},
			spamer.Config{Algorithm: spamer.AlgZeroDelay, BusChannels: c, Deadline: 1 << 40}
	}, scale, opts)
}

// DevicesSweepParallel varies the number of routing devices — the
// multi-router arrangement §3.1 mentions but does not evaluate. Queues
// distribute round-robin, relieving per-device mapping-pipeline and
// send-port contention on many-queue workloads.
func DevicesSweepParallel(ctx context.Context, bench string, devices []int, scale int, opts harness.Options) ([]SweepPoint, error) {
	return sweepParallel(ctx, bench, devices, func(d int) (spamer.Config, spamer.Config) {
		return spamer.Config{Algorithm: spamer.AlgBaseline, Devices: d, Deadline: 1 << 40},
			spamer.Config{Algorithm: spamer.AlgZeroDelay, Devices: d, Deadline: 1 << 40}
	}, scale, opts)
}

// ObfuscationStudyParallel measures the performance cost of the §3.6
// side-channel mitigation across benchmarks, with the plain/obfuscated
// pair of every benchmark in flight at once.
func ObfuscationStudyParallel(ctx context.Context, jitter uint64, scale int, opts harness.Options) ([]ObfuscationRow, error) {
	all := workloads.All()
	var tasks []harness.Task[spamer.Result]
	for _, w := range all {
		tasks = append(tasks,
			runTask(w, spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 40}, scale, w.Name+"/plain"),
			runTask(w, spamer.Config{
				Algorithm:       "custom",
				CustomAlgorithm: core.Obfuscated{Inner: core.NewTuned(), Key: 0x5eed, MaxJitter: jitter},
				Deadline:        1 << 40,
			}, scale, w.Name+"/obfuscated"))
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	results, err := harness.Values(outs)
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
func SoftwareQueueStudyParallel(ctx context.Context, opts harness.Options) ([]SoftwareQueueStudyRow, error) {
	tasks := []harness.Task[uint64]{
		{Label: "chain3/sw", Run: func(context.Context) (uint64, error) { return swChain(), nil }},
		{Label: "chain3/vl", Run: func(context.Context) (uint64, error) { return hwChain(spamer.AlgBaseline), nil }},
		{Label: "chain3/spamer", Run: func(context.Context) (uint64, error) { return hwChain(spamer.AlgZeroDelay), nil }},
		{Label: "incast4/sw", Run: func(context.Context) (uint64, error) { return swIncast(), nil }},
		{Label: "incast4/vl", Run: func(context.Context) (uint64, error) { return hwIncast(spamer.AlgBaseline), nil }},
		{Label: "incast4/spamer", Run: func(context.Context) (uint64, error) { return hwIncast(spamer.AlgZeroDelay), nil }},
	}
	outs, _ := harness.Run(ctx, tasks, opts)
	ticks, err := harness.Values(outs)
	if err != nil {
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
