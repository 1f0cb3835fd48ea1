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

	taps := make([]firTap, firStages)
	taps[0] = firTap{out: queues[0], work: firSrcWork, n: n}
	taps[0].spawn(sys, "fir/source", taps[0].run)
	for s := 1; s < firStages-1; s++ {
		m := &taps[s]
		*m = firTap{in: queues[s-1], out: queues[s], work: firMAC, phase: s * 7, n: n}
		m.spawn(sys, fmt.Sprintf("fir/stage%d", s), m.run)
	}
	sink := &taps[firStages-1]
	*sink = firTap{in: queues[firStages-2], work: firMAC, n: n}
	sink.spawn(sys, "fir/sink", sink.run)
}

// firTap is one FIR thread: the source (no in), a tap stage, or the
// sink (no out). Per sample a stage or the sink pops from in; the
// source then pushes the sample index after work cycles, a stage its
// running tap sum, and the sink charges work. Stages and the sink then
// reload their coefficient block when (i+phase)%firReloadEvery == 0.
type firTap struct {
	thread
	in, out *spamer.Queue
	work    uint64
	phase   int
	n       int

	rx  *spamer.Consumer
	tx  *spamer.Producer
	acc uint64 // tap accumulator
	i   int    // samples done
}

// firTap steps.
const (
	firStart  uint64 = iota // open the endpoints
	firOpened               // input registered: open the output
	firNext                 // pop sample i, or exit after the last
	firPopped               // sample i popped: charge its work
	firPush                 // sample i's work charged: accumulate and push it on
	firTapped               // sample i pushed: reload on schedule
	firDone                 // sample i done
)

func (m *firTap) run(state uint64) {
	switch state {
	case firStart:
		if m.in != nil {
			var pending bool
			m.rx, pending = m.in.NewConsumerThen(firLines, m.then(firOpened))
			if pending {
				return
			}
		}
		fallthrough
	case firOpened:
		if m.out != nil {
			m.tx = m.out.NewProducer(0)
		}
		fallthrough
	case firNext:
		if m.i == m.n {
			m.task.Exit()
			return
		}
		if m.rx != nil {
			m.rx.PopThen(m.then(firPopped))
			return
		}
		fallthrough
	case firPopped:
		if m.tx == nil {
			m.compute(m.work, firTapped)
			return
		}
		m.compute(m.work, firPush)
	case firPush:
		sample := uint64(m.i)
		if m.rx != nil {
			msg, _ := m.rx.Result()
			m.acc += msg.Payload // tap accumulate
			sample = m.acc
		}
		m.tx.PushThen(sample, m.then(firTapped))
	case firTapped:
		if m.rx != nil && (m.i+m.phase)%firReloadEvery == 0 {
			m.compute(firReloadCost, firDone) // coefficient block reload
			return
		}
		fallthrough
	case firDone:
		m.i++
		m.run(firNext)
	}
}
