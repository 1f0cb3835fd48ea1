package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
	"spamer/internal/workloads"
)

// sweepCmd regenerates Figure 11: the sensitivity of the tuned
// delay-prediction algorithm's parameters (ζ, τ, δ, α, β), plotting
// normalized end-to-end execution time ("delay") against the
// normalized dynamic energy of SRD pushes, per benchmark, with the
// baseline at (1, 1). Every benchmark's grid points fan across the
// -parallel pool.
func sweepCmd(c *cli) error {
	benchList := c.flags.String("bench", strings.Join(workloads.Names(), ","),
		"comma-separated benchmarks to sweep")
	scale := c.flags.Int("scale", 1, "message-count multiplier")
	svgDir := c.flags.String("svg", "", "also write per-benchmark scatter SVGs into this directory")
	c.addParallel(parallelUsage)
	c.addProfileFlags()
	if err := c.parse(); err != nil {
		return err
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
	}
	return c.profiled(func() error {
		start := time.Now()
		runs := 0
		for _, name := range strings.Split(*benchList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			points, err := experiments.Figure11Parallel(context.Background(), name, *scale, c.pool("fig11 "+name))
			if err != nil {
				return err
			}
			runs += len(points)
			labels := make([]string, len(points))
			xs := make([]float64, len(points))
			ys := make([]float64, len(points))
			for i, p := range points {
				labels[i], xs[i], ys[i] = p.Label, p.DelayNorm, p.EnergyNorm
			}
			report.Scatter(c.stdout, "Figure 11: "+name, labels, xs, ys, "delay norm", "energy norm")
			if *svgDir != "" {
				if err := writeScatterSVG(fmt.Sprintf("%s/fig11-%s.svg", *svgDir, name), name, labels, xs, ys); err != nil {
					return err
				}
			}
			fmt.Fprintln(c.stdout)
		}
		elapsed := time.Since(start)
		fmt.Fprintf(c.stderr, "sweep: %d simulations on %d workers in %v (%.1f runs/s)\n",
			runs, harness.Workers(c.workers), elapsed.Round(time.Millisecond),
			float64(runs)/elapsed.Seconds())
		fmt.Fprintln(c.stdout, "closer to the origin is better; VL(baseline) anchors (1, 1)")
		return nil
	})
}

func writeScatterSVG(path, name string, labels []string, xs, ys []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = report.SVGScatter(f, "Figure 11: "+name, "delay (normalized)", "energy (normalized)", labels, xs, ys)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
