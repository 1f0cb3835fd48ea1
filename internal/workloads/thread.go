package workloads

import (
	"spamer"
	"spamer/internal/sim"
)

// Every workload in this package runs its threads as step machines on
// System.SpawnFunc, as the DAG runtime (internal/workloads/dag) does:
// the ready-made spamer.Source and spamer.Stage, and the machines
// below, each of which embeds the *sim.Task SpawnFunc returns. Each
// step is a kernel event or the continuation of a queue operation
// (Task.Then), so a message costs no host thread switch. Every compute
// below charges at least one cycle, so each Task.Compute is its own
// event — fusing two consecutive ones would renumber every later
// event — and each queue operation and endpoint open happens in the
// order a thread written as a loop makes it, so the dispatch trace is
// the one the goldens recorded when these threads were blocking loops
// (TestGoldenShapeTraces, TestGoldenTable2Traces and
// TestGoldenExtendedTraces pin it).

// phased is a thread whose every iteration runs one fixed list of
// phases, each a compute or one queue operation on every endpoint of a
// range in turn, after it opens its endpoints in the order given. A
// push sends the iteration number. halo, sweep, the extended
// collectives and ping-pong's
// initiator are phased threads.
type phased struct {
	*sim.Task
	ends   []endpoint
	phases []phase
	iters  int

	tx    []*spamer.Producer // opened producers, in open order
	rx    []*spamer.Consumer // opened consumers, in open order
	it    int                // iteration
	ph, j int                // phase, and cursor in its range (in ends while opening)
}

// endpoint is an endpoint a phased thread opens: a consumer with lines
// buffer lines or, with lines 0, a producer with the given window.
type endpoint struct {
	q      *spamer.Queue
	lines  int
	window int
}

// phase is one step of a phased thread's iteration: a compute of d
// cycles, or op on endpoints [lo, hi) of tx (push) or rx (prefetch,
// pop).
type phase struct {
	op     phaseOp
	d      uint64
	lo, hi int
}

type phaseOp uint8

const (
	opCompute phaseOp = iota
	opPush
	opPrefetch
	opPop
)

// phased steps.
const (
	phOpen   uint64 = iota // open the endpoints from ends[j] on
	phOpened               // consumer ends[j] registered
	phRun                  // run phase ph from endpoint j on
	phNext                 // endpoint j's operation done
)

func (m *phased) run(state uint64) {
	switch state {
	case phOpened:
		m.j++
		fallthrough
	case phOpen:
		for ; m.j < len(m.ends); m.j++ {
			e := m.ends[m.j]
			if e.lines == 0 {
				m.tx = append(m.tx, e.q.NewProducer(e.window))
				continue
			}
			rx, pending := e.q.NewConsumerThen(e.lines, m.Then(phOpened))
			m.rx = append(m.rx, rx)
			if pending {
				return
			}
		}
		m.j = 0
		fallthrough
	case phRun:
		for {
			if m.ph == len(m.phases) {
				m.ph = 0
				m.it++
			}
			if m.it == m.iters {
				m.Exit()
				return
			}
			p := &m.phases[m.ph]
			if p.op == opCompute {
				m.ph++
				m.Compute(p.d, phRun)
				return
			}
			if m.j == p.hi-p.lo {
				m.ph, m.j = m.ph+1, 0
				continue
			}
			switch e := p.lo + m.j; p.op {
			case opPush:
				m.tx[e].PushThen(uint64(m.it), m.Then(phNext))
				return
			case opPop:
				m.rx[e].PopThen(m.Then(phNext))
				return
			case opPrefetch:
				if m.rx[e].PrefetchThen(m.Then(phNext)) {
					return
				}
				m.j++ // a spec-enabled endpoint: nothing to wait for
			}
		}
	case phNext:
		m.j++
		m.run(phRun)
	}
}
