package main

import (
	"bytes"
	"context"
	"fmt"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
)

// ablation is one study of `spamer ablate`: a title line over a table.
type ablation struct {
	name, title string
	table       func(ctx context.Context, scale int, opts harness.Options) ([][]string, error)
}

// ablations go beyond the paper's own figures: the wider
// speculation-algorithm space §3.5 sketches (history-based,
// perceptron-style, profiling-guided) plus the dynamic-reconfiguration
// future-work variant; SRD sizing; interconnect topology (hop latency,
// channel count, device count — explicitly deferred by the paper); and
// the performance cost of the §3.6 timing-obfuscation mitigation.
var ablations = []ablation{
	{"predictors", "Ablation: delay-prediction algorithm space (speedup over VL)", predictorTable},
	{"srd", "Ablation: SRD structure sizing on firewall (tuned vs VL at each size)",
		sweepStudy("entries", "firewall", []int{8, 16, 32, 64, 128}, experiments.SRDEntriesSweepParallel)},
	{"hop", "Ablation: hop latency on FIR (0delay vs VL at each latency)",
		sweepStudy("hop cycles", "FIR", []uint64{6, 12, 24, 48}, experiments.HopLatencySweepParallel)},
	{"channels", "Ablation: interconnect channels on halo (0delay vs VL at each width)",
		sweepStudy("channels", "halo", []int{1, 2, 4, 8}, experiments.BusChannelsSweepParallel)},
	{"devices", "Ablation: routing devices on halo (0delay vs VL at each count)",
		sweepStudy("devices", "halo", []int{1, 2, 4}, experiments.DevicesSweepParallel)},
	{"obfuscation", "Ablation: §3.6 timing obfuscation cost (tuned, 32-cycle jitter bound)", obfuscationTable},
}

// ablateCmd runs one ablation study, or all of them, each fanned
// across the -parallel pool, and prints them once every study's results
// are in; SIGINT or SIGTERM stops it from starting runs and fails the
// command with nothing on stdout.
func ablateCmd(c *cli) error {
	what := c.flags.String("what", "all", "study: predictors|srd|hop|channels|devices|obfuscation|all")
	scale := c.flags.Int("scale", 1, "message-count multiplier")
	c.addParallel(parallelUsage)
	if err := c.parse(); err != nil {
		return err
	}
	var studies []ablation
	for _, a := range ablations {
		if *what == "all" || *what == a.name {
			studies = append(studies, a)
		}
	}
	if len(studies) == 0 {
		return usagef("unknown -what %q", *what)
	}
	ctx, stop := c.interruptible()
	defer stop()
	var out bytes.Buffer
	for _, a := range studies {
		table, err := a.table(ctx, *scale, c.pool(a.name))
		if err != nil {
			return err
		}
		fmt.Fprintln(&out, a.title)
		report.Table(&out, table, true)
		if *what == "all" {
			fmt.Fprintln(&out)
		}
	}
	_, err := c.stdout.Write(out.Bytes())
	return err
}

func predictorTable(ctx context.Context, scale int, opts harness.Options) ([][]string, error) {
	rows, err := experiments.PredictorStudyParallel(ctx, scale, opts)
	if err != nil {
		return nil, err
	}
	names := experiments.PredictorNames()
	table := [][]string{append([]string{"benchmark"}, names...)}
	for _, r := range rows {
		row := []string{r.Benchmark}
		for _, n := range names {
			row = append(row, fmt.Sprintf("%.2fx", r.Speedups[n]))
		}
		table = append(table, row)
	}
	return table, nil
}

func obfuscationTable(ctx context.Context, scale int, opts harness.Options) ([][]string, error) {
	rows, err := experiments.ObfuscationStudyParallel(ctx, 32, scale, opts)
	if err != nil {
		return nil, err
	}
	table := [][]string{{"benchmark", "plain (cycles)", "obfuscated", "overhead"}}
	for _, r := range rows {
		table = append(table, []string{
			r.Benchmark, fmt.Sprint(r.Plain), fmt.Sprint(r.Obf),
			fmt.Sprintf("%+.1f%%", r.Overhead*100),
		})
	}
	return table, nil
}

// sweepStudy tabulates one sensitivity sweep of bench over xs.
func sweepStudy[X any](xName, bench string, xs []X,
	sweep func(context.Context, string, []X, int, harness.Options) ([]experiments.SweepPoint, error),
) func(context.Context, int, harness.Options) ([][]string, error) {
	return func(ctx context.Context, scale int, opts harness.Options) ([][]string, error) {
		points, err := sweep(ctx, bench, xs, scale, opts)
		if err != nil {
			return nil, err
		}
		table := [][]string{{xName, "SPAMeR cycles", "speedup vs VL"}}
		for _, p := range points {
			table = append(table, []string{fmt.Sprint(p.X), fmt.Sprint(p.Ticks), fmt.Sprintf("%.2fx", p.Speedup)})
		}
		return table, nil
	}
}
