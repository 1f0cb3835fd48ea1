package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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
// independent simulations fanned across the -parallel pool. Every
// section prints, and every -svg file is written, once the last study
// is in; SIGINT or SIGTERM stops the pool from starting runs and fails
// the command with nothing on stdout and no SVG written. The -svg
// directory is made before the first run.
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

	ctx, stop := c.interruptible()
	defer stop()
	var m *experiments.Matrix
	if slices.ContainsFunc(show, func(s string) bool { return s == "fig8" || s == "fig9" || s == "fig10" }) {
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				return err
			}
		}
		fmt.Fprintf(c.stderr, "running %d benchmarks x %d configurations (scale %d) on %d workers...\n",
			len(workloads.Names()), len(spamer.Configs()), *scale, harness.Workers(c.workers))
		var err error
		if m, err = experiments.RunMatrixParallel(ctx, *scale, c.pool("matrix")); err != nil {
			return err
		}
	}

	var out bytes.Buffer
	for i, s := range show {
		if i > 0 {
			fmt.Fprintln(&out)
		}
		switch s {
		case "config":
			fmt.Fprintln(&out, "Table 1: simulated hardware configuration")
			report.Table(&out, experiments.Table1Rows(), true)
		case "workloads":
			fmt.Fprintln(&out, "Table 2: benchmarks")
			report.Table(&out, experiments.Table2Rows(), true)
		case "fig8":
			printFig8(&out, m)
		case "fig9":
			printCells(&out, m, "Figure 9: execution breakdown — avg consumer-cacheline cycles (millions), empty + non-empty",
				[]string{"empty(M)", "non-empty(M)", "total(M)"}, func(r spamer.Result) []string {
					empty, nonEmpty := r.AvgEmptyTicks/1e6, r.AvgNonEmptyTicks/1e6
					return []string{fmt.Sprintf("%.3f", empty), fmt.Sprintf("%.3f", nonEmpty), fmt.Sprintf("%.3f", empty+nonEmpty)}
				})
		case "fig10":
			printCells(&out, m, "Figure 10a: push failure rate / Figure 10b: bus utilization",
				[]string{"failure", "bus util"}, func(r spamer.Result) []string {
					return []string{fmt.Sprintf("%5.1f%%", r.FailureRate()*100), fmt.Sprintf("%5.1f%%", r.BusUtilization*100)}
				})
		case "inline":
			rows, err := experiments.InlineStudyParallel(ctx, *scale, c.pool("inline"))
			if err != nil {
				return err
			}
			printInline(&out, rows)
		}
	}
	if m != nil && *svgDir != "" {
		if err := writeSVGs(*svgDir, m); err != nil {
			return err
		}
		fmt.Fprintln(c.stderr, "wrote SVGs to", *svgDir)
	}
	_, err := c.stdout.Write(out.Bytes())
	return err
}

// writeSVGs renders Figures 8 and 10 as SVG files into dir, which
// exists.
func writeSVGs(dir string, m *experiments.Matrix) error {
	fail := make([][]float64, len(m.Benchmarks))
	bus := make([][]float64, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		for _, a := range m.Configs {
			r := m.Results[b][a]
			fail[i] = append(fail[i], r.FailureRate()*100)
			bus[i] = append(bus[i], r.BusUtilization*100)
		}
	}
	for _, fig := range []struct {
		name, title string
		series      []string
		vals        [][]float64
		ref         float64
	}{
		{"fig8-speedup.svg", "Figure 8: speedup over Virtual-Link", m.Configs[1:], fig8Bars(m), 1.0},
		{"fig10a-failure.svg", "Figure 10a: push failure rate (%)", m.Configs, fail, 0},
		{"fig10b-bus.svg", "Figure 10b: bus utilization (%)", m.Configs, bus, 0},
	} {
		if err := writeFile(filepath.Join(dir, fig.name), func(w io.Writer) error {
			return report.SVGGroupedBars(w, fig.title, m.Benchmarks, fig.series, fig.vals, fig.ref)
		}); err != nil {
			return err
		}
	}
	return nil
}

func printFig8(w io.Writer, m *experiments.Matrix) {
	algs := m.Configs[1:]
	fmt.Fprintln(w, "Figure 8: speedup over Virtual-Link (higher is better)")
	table := [][]string{append([]string{"benchmark", "VL(ms)"}, algs...)}
	for _, b := range m.Benchmarks {
		row := []string{b, fmt.Sprintf("%.3f", m.Results[b][spamer.AlgBaseline].MS)}
		for _, a := range algs {
			row = append(row, fmt.Sprintf("%.2fx", m.Speedup(b, a)))
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

	fmt.Fprintln(w)
	report.GroupedBarChart(w, "Figure 8 (bars):", m.Benchmarks, algs, fig8Bars(m), "x")
}

// fig8Bars returns Figure 8's bars: one row per benchmark of
// m.Benchmarks, one speedup per SPAMeR algorithm.
func fig8Bars(m *experiments.Matrix) [][]float64 {
	speedups := make([][]float64, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		for _, a := range m.Configs[1:] {
			speedups[i] = append(speedups[i], m.Speedup(b, a))
		}
	}
	return speedups
}

// printCells prints one row per (benchmark, configuration) matrix cell.
func printCells(w io.Writer, m *experiments.Matrix, title string, header []string, cell func(spamer.Result) []string) {
	fmt.Fprintln(w, title)
	table := [][]string{append([]string{"benchmark", "config"}, header...)}
	for _, b := range m.Benchmarks {
		for _, alg := range m.Configs {
			table = append(table, append([]string{b, alg}, cell(m.Results[b][alg])...))
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
