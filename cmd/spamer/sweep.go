package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// -parallel pool, and the scatters are printed, and their -svg files
// written, once every benchmark's points are in; SIGINT or SIGTERM
// stops it from starting runs and fails the command with nothing on
// stdout and no SVG written.
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
	ctx, stop := c.interruptible()
	defer stop()
	return c.profiled(func() error {
		start := time.Now()
		runs := 0
		var out bytes.Buffer
		var svgs []func() error // each writes one benchmark's scatter SVG
		for _, name := range strings.Split(*benchList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			points, err := experiments.Figure11Parallel(ctx, name, *scale, c.pool("fig11 "+name))
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
			report.Scatter(&out, "Figure 11: "+name, labels, xs, ys, "delay norm", "energy norm")
			svgs = append(svgs, func() error {
				return writeFile(filepath.Join(*svgDir, "fig11-"+name+".svg"), func(w io.Writer) error {
					return report.SVGScatter(w, "Figure 11: "+name, "delay (normalized)", "energy (normalized)", labels, xs, ys)
				})
			})
			fmt.Fprintln(&out)
		}
		if *svgDir != "" {
			for _, write := range svgs {
				if err := write(); err != nil {
					return err
				}
			}
		}
		elapsed := time.Since(start)
		fmt.Fprintf(c.stderr, "sweep: %d simulations on %d workers in %v (%.1f runs/s)\n",
			runs, harness.Workers(c.workers), elapsed.Round(time.Millisecond),
			float64(runs)/elapsed.Seconds())
		fmt.Fprintln(&out, "closer to the origin is better; VL(baseline) anchors (1, 1)")
		_, err := c.stdout.Write(out.Bytes())
		return err
	})
}
