// Quickstart: build a simulated multi-core system, connect a producer
// and a consumer through a hardware message queue, and compare the
// Virtual-Link baseline against SPAMeR's speculative pushes.
package main

import (
	"fmt"

	"spamer"
)

func run(alg string) spamer.Result {
	// A System is one simulated 16-core machine with a routing device
	// of the requested flavour attached to its coherence network.
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg})

	// A Queue is one M:N message channel (a Shared Queue Identifier).
	q := sys.NewQueue("work")

	const messages = 1000

	// Every thread runs on a core of its own. The producer generates
	// items (15 cycles each) faster than the consumer handles them (25
	// cycles), so data waits at the routing device — the situation
	// speculation exploits.
	producer := &spamer.Source{Out: q, N: messages, Work: 15}
	producer.Spawn(sys, "producer")
	next := uint64(0)
	consumer := &spamer.Stage{
		In:    q,
		Lines: 4, // 4 cache-line buffer
		N:     messages,
		Work:  25,
		// OnPop sees every message as it is popped.
		OnPop: func(m spamer.Message) uint64 {
			if m.Seq != next {
				panic("FIFO violation")
			}
			next++
			return m.Payload
		},
	}
	consumer.Spawn(sys, "consumer")

	return sys.Run()
}

func main() {
	baseline := run(spamer.AlgBaseline)
	spec := run(spamer.AlgTuned)

	fmt.Printf("Virtual-Link baseline: %7d cycles (%.3f ms)\n", baseline.Ticks, baseline.MS)
	fmt.Printf("SPAMeR (tuned):        %7d cycles (%.3f ms)\n", spec.Ticks, spec.MS)
	fmt.Printf("speedup:               %.2fx\n", spec.Speedup(baseline))
	fmt.Printf("\nSPAMeR issued %d speculative pushes (%d hit, %d retried)\n",
		spec.Device.SpecPushes, spec.Device.SpecHits, spec.Device.SpecMisses)
	fmt.Printf("requests on the bus: baseline %d, SPAMeR %d\n",
		baseline.Device.Fetches, spec.Device.Fetches)
}
