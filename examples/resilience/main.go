// Resilience: the operational features around the core mechanism —
// deterministic cache-eviction injection (messages survive; §3.1's
// retry loop absorbs the faults), queue teardown with SQI recycling,
// and multiple routing devices — all under SPAMeR speculation.
package main

import (
	"fmt"

	"spamer"
)

const messages = 800

func run(evictEvery uint64) spamer.Result {
	sys := spamer.NewSystem(spamer.Config{
		Algorithm:  spamer.AlgTuned,
		Devices:    2,          // queues spread over two routing devices
		EvictEvery: evictEvery, // failure injection (0 = off)
	})
	q1 := sys.NewQueue("phase1")
	q2 := sys.NewQueue("phase2")

	(&spamer.Source{Out: q1, N: messages, Work: 12}).Spawn(sys, "source")
	(&spamer.Stage{In: q1, Lines: 4, Out: q2, N: messages, Work: 20,
		OnPop: func(m spamer.Message) uint64 { return m.Payload * 2 },
	}).Spawn(sys, "transform")
	var checksum uint64
	(&spamer.Stage{In: q2, Lines: 4, N: messages, Work: 15,
		OnPop: func(m spamer.Message) uint64 {
			checksum += m.Payload
			return m.Payload
		},
	}).Spawn(sys, "sink")

	res := sys.Run()

	// Teardown: drained queues return their SQIs and specBuf entries.
	for _, q := range []*spamer.Queue{q1, q2} {
		if err := q.Close(); err != nil {
			panic(err)
		}
	}
	want := uint64(messages * (messages - 1)) // 2 * sum(0..n-1)
	if checksum != want {
		panic(fmt.Sprintf("checksum %d != %d", checksum, want))
	}
	return res
}

func main() {
	clean := run(0)
	faulty := run(400) // evict a consumer line every 400 cycles

	fmt.Printf("clean run:   %6d cycles, 0 evictions\n", clean.Ticks)
	fmt.Printf("faulty run:  %6d cycles (every message still delivered, in order)\n", faulty.Ticks)
	fmt.Printf("slowdown under fault injection: %.2fx\n",
		float64(faulty.Ticks)/float64(clean.Ticks))
	fmt.Println("\nboth runs checksum-verified; queues closed and SQIs recycled.")
}
