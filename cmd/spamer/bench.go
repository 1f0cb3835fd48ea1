package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
	"spamer/internal/workloads"
)

// benchArtifacts are the sections -what all prints, in order.
var benchArtifacts = []string{"config", "workloads", "fig8", "fig9", "fig10", "inline"}

// benchCmd regenerates the core evaluation artifacts of the paper:
// Table 1 (hardware configuration), Table 2 (benchmarks), Figure 8
// (speedup over Virtual-Link), Figure 9 (execution-time breakdown),
// Figure 10 (push failure rates and bus utilization), and the §4.3
// library-inlining study. The matrix cells and inlining pairs are
// independent simulations fanned across the -parallel pool.
func benchCmd(c *cli) error {
	what := c.flags.String("what", "all", "which artifact to regenerate: all|config|workloads|fig8|fig9|fig10|inline")
	scale := c.flags.Int("scale", 1, "message-count multiplier for every workload")
	svgDir := c.flags.String("svg", "", "also write figure SVGs into this directory")
	c.addParallel(parallelUsage)
	if err := c.parse(); err != nil {
		return err
	}
	show := benchArtifacts
	if *what != "all" {
		if !slices.Contains(benchArtifacts, *what) {
			return usagef("unknown -what %q", *what)
		}
		show = []string{*what}
	}

	var m *experiments.Matrix
	if slices.ContainsFunc(show, func(s string) bool { return s == "fig8" || s == "fig9" || s == "fig10" }) {
		fmt.Fprintf(c.stderr, "running %d benchmarks x %d configurations (scale %d) on %d workers...\n",
			len(workloads.Names()), len(spamer.Configs()), *scale, harness.Workers(c.workers))
		var err error
		if m, err = experiments.RunMatrixParallel(context.Background(), *scale, c.pool("matrix")); err != nil {
			return err
		}
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, m); err != nil {
				return err
			}
			fmt.Fprintln(c.stderr, "wrote SVGs to", *svgDir)
		}
	}

	w := c.stdout
	for i, s := range show {
		if i > 0 {
			fmt.Fprintln(w)
		}
		switch s {
		case "config":
			fmt.Fprintln(w, "Table 1: simulated hardware configuration")
			report.Table(w, experiments.Table1Rows(), true)
		case "workloads":
			fmt.Fprintln(w, "Table 2: benchmarks")
			report.Table(w, experiments.Table2Rows(), true)
		case "fig8":
			printFig8(w, m)
		case "fig9":
			cells := experiments.Figure9(m)
			printCells(w, m, "Figure 9: execution breakdown — avg consumer-cacheline cycles (millions), empty + non-empty",
				[]string{"empty(M)", "non-empty(M)", "total(M)"}, func(b, alg string) []string {
					cell := cells[b][alg]
					return []string{fmt.Sprintf("%.3f", cell.EmptyM), fmt.Sprintf("%.3f", cell.NonEmptyM), fmt.Sprintf("%.3f", cell.EmptyM+cell.NonEmptyM)}
				})
		case "fig10":
			cells := experiments.Figure10(m)
			printCells(w, m, "Figure 10a: push failure rate / Figure 10b: bus utilization",
				[]string{"failure", "bus util"}, func(b, alg string) []string {
					cell := cells[b][alg]
					return []string{fmt.Sprintf("%5.1f%%", cell.FailureRate*100), fmt.Sprintf("%5.1f%%", cell.BusUtilization*100)}
				})
		case "inline":
			rows, err := experiments.InlineStudyParallel(context.Background(), *scale, c.pool("inline"))
			if err != nil {
				return err
			}
			printInline(w, rows)
		}
	}
	return nil
}

// writeSVGs renders Figures 8 and 10 as SVG files.
func writeSVGs(dir string, m *experiments.Matrix) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	groups, speed := fig8Bars(m)
	cells := experiments.Figure10(m)
	fail := make([][]float64, len(m.Benchmarks))
	bus := make([][]float64, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		for _, a := range m.Configs {
			fail[i] = append(fail[i], cells[b][a].FailureRate*100)
			bus[i] = append(bus[i], cells[b][a].BusUtilization*100)
		}
	}
	for _, out := range []struct {
		name, title string
		groups      []string
		series      []string
		vals        [][]float64
		ref         float64
	}{
		{"fig8-speedup.svg", "Figure 8: speedup over Virtual-Link", groups, m.Configs[1:], speed, 1.0},
		{"fig10a-failure.svg", "Figure 10a: push failure rate (%)", m.Benchmarks, m.Configs, fail, 0},
		{"fig10b-bus.svg", "Figure 10b: bus utilization (%)", m.Benchmarks, m.Configs, bus, 0},
	} {
		f, err := os.Create(dir + "/" + out.name)
		if err != nil {
			return err
		}
		err = report.SVGGroupedBars(f, out.title, out.groups, out.series, out.vals, out.ref)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func printFig8(w io.Writer, m *experiments.Matrix) {
	rows := experiments.Figure8(m)
	algs := m.Configs[1:]
	fmt.Fprintln(w, "Figure 8: speedup over Virtual-Link (higher is better)")
	table := [][]string{{"benchmark", "VL(ms)"}}
	table[0] = append(table[0], algs...)
	for _, r := range rows {
		row := []string{r.Benchmark, fmt.Sprintf("%.3f", r.BaselineMS)}
		for _, a := range algs {
			row = append(row, fmt.Sprintf("%.2fx", r.Speedups[a]))
		}
		table = append(table, row)
	}
	geo := []string{"geomean", ""}
	for _, a := range algs {
		geo = append(geo, fmt.Sprintf("%.2fx", m.Geomean(a)))
	}
	table = append(table, geo)
	report.Table(w, table, true)
	fmt.Fprintln(w, "paper reference geomeans: 0delay 1.45x, adapt 1.25x, tuned 1.33x")

	groups, values := fig8Bars(m)
	fmt.Fprintln(w)
	report.GroupedBarChart(w, "Figure 8 (bars):", groups, algs, values, "x")
}

// fig8Bars returns Figure 8 as bar groups: one per benchmark, one
// speedup per SPAMeR algorithm.
func fig8Bars(m *experiments.Matrix) (groups []string, speedups [][]float64) {
	for _, r := range experiments.Figure8(m) {
		groups = append(groups, r.Benchmark)
		var row []float64
		for _, a := range m.Configs[1:] {
			row = append(row, r.Speedups[a])
		}
		speedups = append(speedups, row)
	}
	return groups, speedups
}

// printCells prints one row per (benchmark, configuration) matrix cell.
func printCells(w io.Writer, m *experiments.Matrix, title string, header []string, cell func(b, alg string) []string) {
	fmt.Fprintln(w, title)
	table := [][]string{append([]string{"benchmark", "config"}, header...)}
	for _, b := range m.Benchmarks {
		for _, alg := range m.Configs {
			table = append(table, append([]string{b, alg}, cell(b, alg)...))
		}
	}
	report.Table(w, table, true)
}

func printInline(w io.Writer, rows []experiments.InlineStudyRow) {
	fmt.Fprintln(w, "§4.3 library inlining study (VL baseline, inlined vs function-call)")
	table := [][]string{{"benchmark", "inline speedup"}}
	prod := 1.0
	for _, r := range rows {
		table = append(table, []string{r.Benchmark, fmt.Sprintf("%.3fx", r.Speedup)})
		prod *= r.Speedup
	}
	n := float64(len(rows))
	table = append(table, []string{"geomean", fmt.Sprintf("%.3fx", math.Pow(prod, 1/n))})
	report.Table(w, table, true)
	fmt.Fprintln(w, "paper reference: 1.02x average")
}
