// Tracing: observe individual message-queue transactions the way §4.2
// does — probe the queue's endpoint events, record data arrivals,
// requests, vacates, fills and first uses, and compare the on-demand
// timeline (Virtual-Link) against the speculative one (SPAMeR).
package main

import (
	"fmt"
	"os"

	"spamer"
	"spamer/internal/trace"
)

func main() {
	for _, alg := range []string{spamer.AlgBaseline, spamer.AlgZeroDelay} {
		tr, res := trace.RunFigure7(trace.DefaultFigure7(alg))
		sum := trace.Summarize(tr.Transactions())

		fmt.Printf("=== %s: %d transactions, %d speculative, %d on-demand ===\n",
			alg, sum.Transactions, sum.Speculative, sum.OnDemand)
		fmt.Printf("mean data-arrive->first-use latency: %.1f cycles\n", sum.MeanLatencyTk)
		if alg == spamer.AlgBaseline {
			fmt.Printf("request-hindered transactions: %d (potential saving %d cycles)\n",
				sum.Hindered, sum.TotalSavingTk)
		}
		fmt.Printf("execution: %d cycles\n\n", res.Ticks)

		evs := tr.Events()
		if len(evs) > 0 {
			lo := evs[len(evs)/3].Tick
			hi := evs[2*len(evs)/3].Tick
			trace.RenderTimeline(os.Stdout, evs, lo, hi, 100)
		}
		fmt.Println()
	}
	fmt.Println("on the SPAMeR timeline the 'request arrive' row is empty: the routing")
	fmt.Println("device pushes in anticipation of the requests instead of waiting for them.")
}
