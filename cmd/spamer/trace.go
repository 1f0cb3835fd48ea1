package main

import (
	"fmt"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/report"
	"spamer/internal/stats"
	"spamer/internal/trace"
	"spamer/internal/workloads"
)

// traceCmd regenerates the §4.2 message-queue workload tracing
// experiment and Figure 7: an incast run reduced to a single queue, a
// single consumer cache line, and a single producer thread, with every
// transaction's events (data arrival, request arrival, line vacate,
// fill, first use) stitched together and the potential
// speculative-push savings of on-demand transactions reported. With
// -phases it instead samples a named benchmark in windows and prints
// its throughput phases.
func traceCmd(c *cli) error {
	alg := c.flags.String("alg", "vl", "routing-device configuration: vl|0delay|adapt|tuned")
	csv := c.flags.Bool("csv", false, "dump raw events as CSV instead of the summary")
	from := c.flags.Uint64("from", 0, "timeline start tick (0 = auto)")
	to := c.flags.Uint64("to", 0, "timeline end tick (0 = auto)")
	phasesOf := c.flags.String("phases", "", "instead of the Figure 7 trace, sample the named benchmark in windows and print its throughput phases (the Figure 7 overview view)")
	period := c.flags.Uint64("period", 2048, "sampling period in cycles for -phases")
	if err := c.parse(); err != nil {
		return err
	}
	if !spamer.KnownAlgorithm(*alg) {
		return usagef("unknown -alg %q", *alg)
	}
	if *phasesOf != "" {
		return tracePhases(c, *phasesOf, *alg, *period, *csv)
	}

	tr, sum, res := experiments.Figure7(*alg)
	evs := tr.Events()
	if *csv {
		return trace.WriteCSV(c.stdout, evs)
	}

	w := c.stdout
	fmt.Fprintf(w, "Figure 7 trace: incast, single SQI, single consumer line, single producer (%s)\n\n", *alg)
	lo, hi := *from, *to
	if len(evs) > 0 {
		if lo == 0 {
			// Default window: the middle of the run, where the paper's
			// phase transition shows.
			lo = evs[len(evs)/3].Tick
		}
		if hi == 0 {
			hi = evs[2*len(evs)/3].Tick
		}
	}
	trace.RenderTimeline(w, evs, lo, hi, 100)

	fmt.Fprintln(w)
	report.Table(w, [][]string{
		{"metric", "value"},
		{"transactions", fmt.Sprint(sum.Transactions)},
		{"on-demand", fmt.Sprint(sum.OnDemand)},
		{"speculative", fmt.Sprint(sum.Speculative)},
		{"request-hindered (dark in Fig. 7)", fmt.Sprint(sum.Hindered)},
		{"total potential saving (cycles)", fmt.Sprint(sum.TotalSavingTk)},
		{"mean data-arrive→use latency (cycles)", fmt.Sprintf("%.1f", sum.MeanLatencyTk)},
		{"execution time (cycles)", fmt.Sprint(res.Ticks)},
	}, true)
	return nil
}

func tracePhases(c *cli, bench, alg string, period uint64, csv bool) error {
	w, ok := workloads.ByName(bench)
	if !ok {
		if w, ok = workloads.ExtendedByName(bench); !ok {
			return usagef("unknown benchmark %q", bench)
		}
	}
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg})
	w.Build(sys, 1)
	s := stats.Attach(sys, period)
	res := sys.Run()
	if csv {
		return s.WriteCSV(c.stdout)
	}
	fmt.Fprintf(c.stdout, "%s (%s): %d cycles, %d messages\n\n", bench, alg, res.Ticks, res.Popped)
	fmt.Fprintln(c.stdout, "throughput phases (messages out per kilocycle):")
	table := [][]string{{"from", "to", "rate"}}
	for _, p := range s.Phases(0.35) {
		table = append(table, []string{fmt.Sprint(p.StartTick), fmt.Sprint(p.EndTick), fmt.Sprintf("%.2f", p.Rate)})
	}
	report.Table(c.stdout, table, true)
	return nil
}
