package main

import (
	"fmt"
	"io"

	"spamer/internal/experiments"
	"spamer/internal/report"
)

// runCmd executes experiments described as JSON specs and emits
// machine-readable JSON outcomes, making reproduction scriptable and
// diffable. It reads one spec (or an array) from a file or stdin:
//
//	spamer run [-spec experiment.json] [-parallel N]
//	echo '{"benchmark":"FIR","algorithms":["vl","0delay"]}' | spamer run
//
// Spec fields: benchmark, algorithms, scale, hop_latency, bus_channels,
// devices, no_inline, srd_entries, tuned{zeta,tau,delta,alpha,beta},
// repeat (determinism check), label,
// extensions{allow_extended_workloads}. A non-zero domains field (the
// removed parallel kernel) is an error.
//
// Instead of a named benchmark, a spec may carry an anonymous
// synthetic workload: shape{stages|producers/consumers, messages,
// prod_work, cons_work, lines, window, burst, burst_gap} with an
// optional open-loop arrival process
// arrival{process: poisson|mmpp|pareto, seed, mean_gap, users,
// bursty_gap, mean_dwell, alpha, max_gap, storm_every, storm_burst,
// ramp_period, ramp_peak} — see EXPERIMENTS.md, "Open-loop workloads".
// Arrival timelines are deterministic in (seed, endpoint). A shape may
// instead carry a workload DAG: shape{dag: {...}} with named stages,
// replica counts, compute distributions, edge policies, and optional
// recorded-trace replay (docs/WORKLOADS.md).
//
// Specs are independent simulations; -parallel fans them (one task per
// spec × algorithm) across the harness pool while keeping the emitted
// outcomes in spec order. A failing spec does not abort the batch: its
// error goes to stderr, every outcome that did complete is still
// written to stdout, and the exit status is 1. SIGINT or SIGTERM stops
// the batch from starting runs: the runs in flight finish, every
// unstarted one fails its spec with "context canceled", and a second
// signal ends the process. After the batch, a per-scenario
// SPAMeR-vs-VL speedup table is printed to stderr.
func runCmd(c *cli) error {
	specPath := c.flags.String("spec", "-", "spec file path, or - for stdin")
	c.addParallel(parallelUsage)
	c.addProfileFlags()
	if err := c.parse(); err != nil {
		return err
	}
	specs, err := c.loadSpecs(*specPath)
	if err != nil {
		return err
	}

	ctx, stop := c.interruptible()
	defer stop()
	var results []experiments.SpecResult
	if err := c.profiled(func() error {
		results = experiments.RunSpecsParallel(ctx, specs, c.pool(""))
		return nil
	}); err != nil {
		return err
	}
	failed := false
	var all []experiments.Outcome
	for i, res := range results {
		if res.Err != nil {
			fmt.Fprintf(c.stderr, "spec %d: %v\n", i, res.Err)
			failed = true
		}
		all = append(all, res.Outcomes...)
	}
	printSpeedups(c.stderr, all)
	if err := experiments.WriteOutcomes(c.stdout, all); err != nil {
		return err
	}
	if failed {
		return exitStatus(1)
	}
	return nil
}

// printSpeedups renders the per-scenario SPAMeR-vs-VL speedup table:
// one row per benchmark/scenario (first-seen order), one column per
// algorithm, cells from each outcome's baseline-normalized speedup.
// Skipped when no outcome carries a speedup (no VL baseline ran).
func printSpeedups(w io.Writer, outs []experiments.Outcome) {
	var scenarios, algs []string
	si := map[string]int{}
	ai := map[string]int{}
	for _, o := range outs {
		if _, ok := si[o.Benchmark]; !ok {
			si[o.Benchmark] = len(scenarios)
			scenarios = append(scenarios, o.Benchmark)
		}
		if _, ok := ai[o.Algorithm]; !ok {
			ai[o.Algorithm] = len(algs)
			algs = append(algs, o.Algorithm)
		}
	}
	cells := make([][]float64, len(scenarios))
	for i := range cells {
		cells[i] = make([]float64, len(algs))
	}
	any := false
	for _, o := range outs {
		if o.SpeedupOverVL > 0 {
			cells[si[o.Benchmark]][ai[o.Algorithm]] = o.SpeedupOverVL
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w)
	report.SpeedupTable(w, "speedup over vl", scenarios, algs, cells)
}
