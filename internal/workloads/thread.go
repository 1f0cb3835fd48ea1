package workloads

import (
	"spamer"
	"spamer/internal/sim"
)

// Every workload in this package except the extended set runs its
// threads process-free (System.SpawnFunc), as the DAG runtime
// (internal/workloads/dag) does: each thread is a state machine whose
// steps are kernel events and the continuations of the queue
// operations, so a message costs no coroutine switch. Each Compute
// stays its own AfterFunc event, a zero one included (Sleep(0) is an
// event too) — fusing two consecutive ones would renumber every later
// event — and each queue operation and endpoint open happens at the
// step where a blocking body would call it, so the dispatch trace is
// the one blocking bodies produce (TestGoldenShapeTraces and
// TestGoldenTable2Traces pin it).

// thread is what every process-free thread shares: its kernel, its
// Task, and its step function, a method value bound once.
type thread struct {
	k    *sim.Kernel
	task *sim.Task
	step func(uint64)
}

// spawn adds the thread to sys with step as its step function; the
// first step, step(0), runs at tick 0.
func (t *thread) spawn(sys *spamer.System, name string, step func(uint64)) {
	t.k, t.step = sys.Kernel(), step
	t.task = sys.SpawnFunc(name, step, 0).Task
}

// compute charges d cycles of local work, then runs step next: one
// event, as Thread.Compute costs.
func (t *thread) compute(d, next uint64) { t.k.AfterFunc(d, t.step, next) }

// then is the continuation that resumes the thread at step next.
func (t *thread) then(next uint64) sim.Cont { return sim.Cont{Fn: t.step, Arg: next} }

// source is a closed-loop source thread: for each of n messages it
// charges work cycles and pushes the message index, and after every
// burst messages (0: never) it idles burst*work cycles — incast's
// two-phase producer.
type source struct {
	thread
	q      *spamer.Queue
	window int
	work   uint64
	burst  int
	n      int

	tx *spamer.Producer
	i  int // messages pushed
}

// source steps.
const (
	srcStart  uint64 = iota // open the endpoint
	srcNext                 // charge message i's work, or exit after the last
	srcPush                 // push message i
	srcPushed               // message i pushed: idle at a burst boundary
	srcDone                 // message i done
)

func (m *source) run(state uint64) {
	switch state {
	case srcStart:
		m.tx = m.q.NewProducer(m.window)
		fallthrough
	case srcNext:
		if m.i == m.n {
			m.task.Exit()
			return
		}
		m.compute(m.work, srcPush)
	case srcPush:
		m.tx.PushThen(uint64(m.i), m.then(srcPushed))
	case srcPushed:
		if m.burst > 0 && (m.i+1)%m.burst == 0 {
			m.compute(uint64(m.burst)*m.work, srcDone)
			return
		}
		fallthrough
	case srcDone:
		m.i++
		m.run(srcNext)
	}
}

// phased is a thread whose every iteration runs one fixed list of
// phases, each a compute or one queue operation on every endpoint of a
// range in turn, after it opens its endpoints in the order given. A
// push sends the iteration number. halo, sweep and ping-pong's
// initiator are phased threads.
type phased struct {
	thread
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
			rx, pending := e.q.NewConsumerThen(e.lines, m.then(phOpened))
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
				m.task.Exit()
				return
			}
			p := &m.phases[m.ph]
			if p.op == opCompute {
				m.ph++
				m.compute(p.d, phRun)
				return
			}
			if m.j == p.hi-p.lo {
				m.ph, m.j = m.ph+1, 0
				continue
			}
			switch e := p.lo + m.j; p.op {
			case opPush:
				m.tx[e].PushThen(uint64(m.it), m.then(phNext))
				return
			case opPop:
				m.rx[e].PopThen(m.then(phNext))
				return
			case opPrefetch:
				if m.rx[e].PrefetchThen(m.then(phNext)) {
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
