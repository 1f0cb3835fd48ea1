package main

import (
	"fmt"

	"spamer/internal/experiments"
	"spamer/internal/report"
	"spamer/internal/swqueue"
)

// latencyCmd regenerates the Figure 1 comparison: the cross-core
// message latency of a coherence-based software queue (Lc), the
// Virtual-Link hardware queue (Lv), and SPAMeR with speculative pushes
// (Ls), demonstrating Lc > Lv > Ls; then the same three stacks at
// application level. It exits 1 when the ordering does not reproduce.
// Everything prints once the application-level study is in; SIGINT or
// SIGTERM stops that study from starting builds and fails the command
// with nothing on stdout.
func latencyCmd(c *cli) error {
	if err := c.parse(); err != nil {
		return err
	}
	w := c.stdout
	r := swqueue.RunFigure1()
	chart := func() {
		fmt.Fprintf(w, "Figure 1: cross-core message queue communication latency (%d messages, closed loop)\n\n", r.Messages)
		report.BarChart(w, "mean latency, cycles (lower is better):",
			[]string{"Lc coherence queue (MOESI)", "Lv Virtual-Link", "Ls SPAMeR"},
			[]float64{r.Lc, r.Lv, r.Ls}, "")
		fmt.Fprintln(w)
	}
	if !(r.Lc > r.Lv && r.Lv > r.Ls) {
		chart()
		fmt.Fprintln(w, "WARNING: expected ordering Lc > Lv > Ls not observed")
		return exitStatus(1)
	}

	ctx, stop := c.interruptible()
	defer stop()
	rows, err := experiments.SoftwareQueueStudyParallel(ctx, c.pool(""))
	if err != nil {
		return err
	}
	chart()
	fmt.Fprintln(w, "ordering Lc > Lv > Ls reproduced")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "application-level comparison (end-to-end cycles):")
	table := [][]string{{"workload", "SW coherent queue", "Virtual-Link", "SPAMeR", "VL vs SW", "SPAMeR vs SW"}}
	for _, row := range rows {
		table = append(table, []string{
			row.Workload,
			fmt.Sprint(row.SWTicks), fmt.Sprint(row.VLTicks), fmt.Sprint(row.SpTicks),
			fmt.Sprintf("%.2fx", row.VLOverSW), fmt.Sprintf("%.2fx", row.SpOverSW),
		})
	}
	report.Table(w, table, true)
	return nil
}
