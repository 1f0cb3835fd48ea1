package main

import (
	"fmt"
	"strings"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/report"
	"spamer/internal/workloads"
)

// tuneCmd implements the paper's stated future work: search for a
// better tuned-algorithm parameter set per benchmark (coordinate
// descent from the published ζ=256, τ=96, δ=64, α=1, β=2) and report
// the improvement against the Figure 11 objective (distance from the
// origin in normalized delay/energy space). Each round's candidate
// neighbours run on the -parallel pool without changing the search
// trajectory; SIGINT or SIGTERM stops it from starting runs and fails
// the command.
func tuneCmd(c *cli) error {
	benchList := c.flags.String("bench", strings.Join(workloads.Names(), ","), "benchmarks to tune")
	rounds := c.flags.Int("rounds", 6, "coordinate-descent rounds")
	scale := c.flags.Int("scale", 1, "message-count multiplier")
	c.addParallel("worker pool size for each round's candidate evaluations (0 = GOMAXPROCS)")
	if err := c.parse(); err != nil {
		return err
	}

	ctx, stop := c.interruptible()
	defer stop()
	table := [][]string{{"benchmark", "published score", "best score", "best params", "gain", "evals"}}
	for _, name := range strings.Split(*benchList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fmt.Fprintf(c.stderr, "tuning %s (%d workers)...\n", name, harness.Workers(c.workers))
		start := time.Now()
		res, err := experiments.Tune(ctx, name, *scale, *rounds, c.pool(""))
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(c.stderr, "tuned %s: %d evals in %v (%.1f runs/s)\n",
			name, res.Evals, elapsed.Round(time.Millisecond), float64(res.Evals)/elapsed.Seconds())
		table = append(table, []string{
			res.Benchmark,
			fmt.Sprintf("%.4f", res.Start.Score()),
			fmt.Sprintf("%.4f", res.Best.Score()),
			res.Best.Params.String(),
			fmt.Sprintf("%.1f%%", (res.Improvement-1)*100),
			fmt.Sprint(res.Evals),
		})
	}
	fmt.Fprintln(c.stdout, "Per-benchmark tuned-parameter search (objective: Figure 11 distance to origin)")
	report.Table(c.stdout, table, true)
	fmt.Fprintln(c.stdout, "\nthe paper hardens one set for all benchmarks; the search quantifies what")
	fmt.Fprintln(c.stdout, "per-benchmark reconfiguration (its stated future work) would buy.")
	return nil
}
