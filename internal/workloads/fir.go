package workloads

import (
	"fmt"

	"spamer"
)

// FIR: samples stream through a 10-stage FIR filter, one thread per tap
// stage, nine 1:1 queues in a chain. Each stage does a small
// multiply-accumulate per sample, far below the request round trip —
// the paper's highest-speedup benchmark (2.59x with 0-delay).
//
// The source emits samples in windows separated by gaps (sensor frames
// arriving in bursts). The stages therefore alternate between a fast
// path (next sample already pushed into the local line) and a slow path
// (stall at a window boundary). The adaptive algorithm's multiplicative
// delay adjustment overshoots on that alternation and "easily learns the
// period of slow path instead of the fast path" (§4.3); the tuned
// algorithm's additive scanning recovers the fast path.
const (
	firStages  = 10 // threads; queues = firStages-1 = 9
	firSamples = 1800
	firMAC     = 20 // per-sample multiply-accumulate at each stage
	firSrcWork = 14 // per-sample generation
	firLines   = 2

	// Every firReloadEvery samples a stage reloads its coefficient
	// block (adaptive-filter style), stalling firReloadCost cycles.
	// This is the fast-path/slow-path alternation of §4.3: the
	// adaptive algorithm's multiplicative delay adjustment overshoots
	// on the long interval and relearns over several samples, while
	// the tuned algorithm's halved-delay probes recover quickly.
	firReloadEvery = 96
	firReloadCost  = 600
)

func init() {
	register(&Workload{
		Name:      "FIR",
		Desc:      "data streams through 10-stage FIR filter",
		QueueSpec: "(1:1)x9",
		Threads:   firStages,
		Build:     buildFIR,
	})
}

func buildFIR(sys *spamer.System, scale int) {
	n := firSamples * scale
	queues := make([]*spamer.Queue, firStages-1)
	for i := range queues {
		queues[i] = sys.NewQueue(fmt.Sprintf("fir.q%d", i))
	}

	sys.Spawn("fir/source", func(t *spamer.Thread) {
		tx := queues[0].NewProducer(0)
		for i := 0; i < n; i++ {
			tx.PushAfter(t.Proc, firSrcWork, uint64(i))
		}
	})

	for s := 1; s < firStages-1; s++ {
		s := s
		sys.Spawn(fmt.Sprintf("fir/stage%d", s), func(t *spamer.Thread) {
			rx := queues[s-1].NewConsumer(t.Proc, firLines)
			tx := queues[s].NewProducer(0)
			acc := uint64(0)
			for i := 0; i < n; i++ {
				m := rx.Pop(t.Proc)
				acc += m.Payload // tap accumulate
				tx.PushAfter(t.Proc, firMAC, acc)
				if (i+s*7)%firReloadEvery == 0 {
					t.Compute(firReloadCost) // coefficient block reload
				}
			}
		})
	}

	sys.Spawn("fir/sink", func(t *spamer.Thread) {
		rx := queues[firStages-2].NewConsumer(t.Proc, firLines)
		for i := 0; i < n; i++ {
			rx.Pop(t.Proc)
			t.Compute(firMAC)
			if i%firReloadEvery == 0 {
				t.Compute(firReloadCost)
			}
		}
	})
}
