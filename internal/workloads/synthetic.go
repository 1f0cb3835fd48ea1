package workloads

import (
	"fmt"

	"spamer"
	"spamer/internal/sim"
	"spamer/internal/traffic"
	"spamer/internal/vlq"
	"spamer/internal/workloads/dag"
)

// Shape parameterizes a synthetic workload: a family of small pipeline
// chains and fan-in/fan-out patterns whose structure is entirely data —
// producer/consumer counts, per-endpoint buffering, window sizes, burst
// patterns, and compute grain. The verification oracle's randomized
// campaign (internal/oracle/gen) draws Shapes at random and runs them
// under every invariant; the struct is JSON-serializable so a failing
// configuration can be persisted verbatim as a repro file.
//
// Two sub-families exist:
//
//   - Stages >= 2: a 1:1 pipeline chain of Stages threads connected by
//     Stages-1 queues (the FIR idiom).
//   - Stages == 0: a (Producers:Consumers)x1 fan over one shared queue,
//     drained through a WorkCounter when Consumers > 1.
type Shape struct {
	// Stages selects the chain family when >= 2 (0 selects the fan).
	Stages int `json:"stages,omitempty"`
	// Producers/Consumers shape the fan family; both default to 1.
	Producers int `json:"producers,omitempty"`
	Consumers int `json:"consumers,omitempty"`

	// Messages is the message count per producer endpoint (the chain's
	// source is its single producer).
	Messages int `json:"messages"`

	// ProdWork/ConsWork are per-message compute cycles on each side.
	ProdWork uint64 `json:"prod_work,omitempty"`
	ConsWork uint64 `json:"cons_work,omitempty"`

	// Lines sizes each consumer endpoint's line page (0 = 2).
	Lines int `json:"lines,omitempty"`
	// Window bounds each producer's in-flight pushes (0 = library default).
	Window int `json:"window,omitempty"`

	// Burst, when > 0, makes producers emit in bursts of Burst messages
	// separated by BurstGap idle cycles (0 gap = 40x the per-message
	// work) — the bursty arrival pattern that stresses delay prediction.
	Burst    int    `json:"burst,omitempty"`
	BurstGap uint64 `json:"burst_gap,omitempty"`

	// Arrival, when set, switches producers to open-loop: each producer
	// follows the seeded arrival schedule drawn from this spec (its
	// endpoint id selects the stream) instead of pushing as fast as the
	// queue admits. Mutually exclusive with Burst — the arrival process
	// subsumes burstiness. See internal/traffic for the determinism
	// contract that keeps open-loop shapes parallel-safe.
	Arrival *traffic.Spec `json:"arrival,omitempty"`

	// DAG, when set, selects a third family: an arbitrary
	// producer/consumer DAG described by the internal/workloads/dag
	// DSL (named stages, replica counts, compute distributions, edge
	// fan-in/fan-out policies, optional trace replay). Mutually
	// exclusive with every synthetic field above — a DAG shape is
	// entirely described by its spec.
	DAG *dag.Spec `json:"dag,omitempty"`
}

// Validate rejects shapes that cannot build a runnable workload.
func (sh *Shape) Validate() error {
	if sh.DAG != nil {
		if sh.Stages != 0 || sh.Producers != 0 || sh.Consumers != 0 || sh.Messages != 0 ||
			sh.ProdWork != 0 || sh.ConsWork != 0 || sh.Lines != 0 || sh.Window != 0 ||
			sh.Burst != 0 || sh.BurstGap != 0 || sh.Arrival != nil {
			return fmt.Errorf("workloads: dag shapes set no synthetic fields")
		}
		return sh.DAG.Validate()
	}
	if sh.Messages <= 0 {
		return fmt.Errorf("workloads: shape needs messages > 0")
	}
	if sh.Stages == 1 || sh.Stages < 0 {
		return fmt.Errorf("workloads: shape stages must be 0 or >= 2, got %d", sh.Stages)
	}
	if sh.Stages >= 2 && (sh.Producers > 1 || sh.Consumers > 1) {
		return fmt.Errorf("workloads: chain shapes are strictly 1:1")
	}
	if sh.Producers < 0 || sh.Consumers < 0 || sh.Lines < 0 || sh.Window < 0 || sh.Burst < 0 {
		return fmt.Errorf("workloads: negative shape parameter")
	}
	if sh.Arrival != nil {
		if sh.Burst > 0 {
			return fmt.Errorf("workloads: burst and arrival are mutually exclusive")
		}
		if err := sh.Arrival.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Canonical returns the shape with dual spellings of defaults collapsed
// (Producers/Consumers 1 -> 0, Lines 2 -> 0, Window vlq default -> 0)
// and the arrival spec, if any, in its canonical form. Two shapes that
// build identical workloads hash identically through it.
func (sh Shape) Canonical() Shape {
	if sh.DAG != nil {
		d := sh.DAG.Canonical()
		return Shape{DAG: &d}
	}
	c := sh
	if c.Producers == 1 {
		c.Producers = 0
	}
	if c.Consumers == 1 {
		c.Consumers = 0
	}
	if c.Lines == 2 {
		c.Lines = 0
	}
	if c.Window == vlq.DefaultWindow {
		c.Window = 0
	}
	if c.Burst == 0 {
		c.BurstGap = 0
	}
	if sh.Arrival != nil {
		a := sh.Arrival.Canonical()
		c.Arrival = &a
		c.Burst, c.BurstGap = 0, 0
	}
	return c
}

// Name returns a compact diagnostic name encoding the shape.
func (sh *Shape) Name() string {
	if sh.DAG != nil {
		return sh.DAG.WorkloadName()
	}
	suffix := ""
	if sh.Arrival != nil {
		suffix = "-ol:" + sh.Arrival.Name()
	}
	if sh.Stages >= 2 {
		return fmt.Sprintf("synthetic/chain-s%d-m%d%s", sh.Stages, sh.Messages, suffix)
	}
	p, c := sh.fan()
	return fmt.Sprintf("synthetic/fan-%d:%d-m%d%s", p, c, sh.Messages, suffix)
}

func (sh *Shape) fan() (producers, consumers int) {
	producers, consumers = sh.Producers, sh.Consumers
	if producers == 0 {
		producers = 1
	}
	if consumers == 0 {
		consumers = 1
	}
	return producers, consumers
}

func (sh *Shape) lines() int {
	if sh.Lines == 0 {
		return 2
	}
	return sh.Lines
}

// burstGap returns the inter-burst idle time.
func (sh *Shape) burstGap() uint64 {
	if sh.BurstGap > 0 {
		return sh.BurstGap
	}
	return 40 * (sh.ProdWork + 1)
}

// Workload materializes the shape as a runnable workload. It is not
// registered in the benchmark registry — shapes are anonymous,
// generated, and exist only for verification runs.
func (sh *Shape) Workload() *Workload {
	if sh.DAG != nil {
		return &Workload{
			Name:      sh.Name(),
			Desc:      "generated DAG scenario",
			QueueSpec: "dag",
			Threads:   sh.DAG.Threads(),
			Build:     sh.DAG.Build,
		}
	}
	threads := sh.Stages
	build := sh.buildChain
	if sh.Stages < 2 {
		p, c := sh.fan()
		threads = p + c
		build = sh.buildFan
	}
	return &Workload{
		Name:      sh.Name(),
		Desc:      "generated verification shape",
		QueueSpec: "synthetic",
		Threads:   threads,
		Build:     build,
	}
}

// The synthetic shapes run their threads process-free
// (System.SpawnFunc): each thread is a state machine whose steps are
// kernel events and the continuations of the queue operations, so a
// message costs no coroutine switch. Each Compute stays its own
// AfterFunc event — fusing two consecutive ones would renumber every
// later event — and each queue operation starts at the step where a
// blocking body would call it, so the dispatch trace is the one
// blocking bodies produce (TestGoldenShapeTraces pins it).

// arrivalChunk sizes the pooled arrival-record block each open-loop
// producer refills in place — large enough to amortize the refill loop,
// small enough to stay cache-resident.
const arrivalChunk = 256

// producer is a source thread, the chain's first stage or one fan
// producer: it pushes n messages with the shape's work/burst pattern,
// or, when sh.Arrival is set, on the open-loop schedule drawn from it.
type producer struct {
	sh   *Shape
	k    *sim.Kernel
	task *sim.Task
	q    *spamer.Queue
	tx   *spamer.Producer
	id   int
	i, n int // messages pushed, messages to push
	step func(uint64)

	// Open loop: the arrival source and one chunk of arrival ticks,
	// refilled in place, so the steady state allocates nothing per
	// message.
	src *traffic.Source
	buf []uint64
	pos int
}

// producer steps.
const (
	prodStart  uint64 = iota // open the endpoint
	prodNext                 // push message i, or exit after the last
	prodWork                 // charge ProdWork (once an open-loop arrival is due)
	prodGap                  // charge the burst gap at a burst boundary
	prodPush                 // push message i
	prodPushed               // message i pushed
)

func (sh *Shape) spawnProducer(sys *spamer.System, name string, q *spamer.Queue, id, n int) {
	m := &producer{sh: sh, k: sys.Kernel(), q: q, id: id, n: n}
	m.step = m.run
	m.task = sys.SpawnFunc(name, m.step, prodStart).Task
}

func (m *producer) run(state uint64) {
	sh := m.sh
	switch state {
	case prodStart:
		m.tx = m.q.NewProducer(sh.Window)
		if sh.Arrival != nil {
			m.src = traffic.NewSource(*sh.Arrival, m.id)
			m.buf = make([]uint64, min(arrivalChunk, m.n))
			m.pos = len(m.buf)
		}
		fallthrough
	case prodNext:
		if m.i == m.n {
			m.task.Exit()
			return
		}
		if m.src != nil {
			// Open loop: idle until the arrival is due. A producer the
			// window stalled past the arrival pushes at once — the
			// schedule never slips, which is the open-loop contract.
			if m.pos == len(m.buf) {
				m.src.Fill(m.buf)
				m.pos = 0
			}
			at := m.buf[m.pos]
			m.pos++
			if now := m.k.Now(); now < at {
				m.k.AfterFunc(at-now, m.step, prodWork)
				return
			}
		}
		fallthrough
	case prodWork:
		if sh.ProdWork > 0 {
			m.k.AfterFunc(sh.ProdWork, m.step, prodGap)
			return
		}
		fallthrough
	case prodGap:
		if m.src == nil && sh.Burst > 0 && m.i > 0 && m.i%sh.Burst == 0 {
			m.k.AfterFunc(sh.burstGap(), m.step, prodPush)
			return
		}
		fallthrough
	case prodPush:
		m.tx.PushThen(payloadFor(m.id, m.i), sim.Cont{Fn: m.step, Arg: prodPushed})
	case prodPushed:
		m.i++
		m.run(prodNext)
	}
}

// consumer is a draining thread, a chain stage or sink or one fan
// consumer: it opens its endpoint on in (registering it on a SPAMeR
// system), then pops n messages — or, sharing a WorkCounter, takes
// until the shared count runs out — charging ConsWork after each. A
// chain stage forwards each message on out.
type consumer struct {
	sh      *Shape
	k       *sim.Kernel
	task    *sim.Task
	in, out *spamer.Queue
	rx      *spamer.Consumer
	tx      *spamer.Producer
	wc      *spamer.WorkCounter
	i, n    int // messages popped, messages to pop (without wc)
	step    func(uint64)
}

// consumer steps.
const (
	consStart   uint64 = iota // open the input endpoint
	consOpened                // input endpoint registered: open the output
	consNext                  // pop (or take) message i, or exit
	consTook                  // a take completed: exit if the count ran out
	consWork                  // message i popped: charge ConsWork
	consForward               // forward message i on out
	consDone                  // message i done
)

func (sh *Shape) spawnConsumer(sys *spamer.System, name string, m *consumer) {
	m.sh, m.k = sh, sys.Kernel()
	m.step = m.run
	m.task = sys.SpawnFunc(name, m.step, consStart).Task
}

func (m *consumer) run(state uint64) {
	switch state {
	case consStart:
		var pending bool
		m.rx, pending = m.in.NewConsumerThen(m.sh.lines(), sim.Cont{Fn: m.step, Arg: consOpened})
		if pending {
			return
		}
		fallthrough
	case consOpened:
		if m.out != nil {
			m.tx = m.out.NewProducer(m.sh.Window)
		}
		fallthrough
	case consNext:
		if m.wc != nil {
			if !m.wc.TakeThen(m.rx, sim.Cont{Fn: m.step, Arg: consTook}) {
				m.task.Exit()
			}
			return
		}
		if m.i == m.n {
			m.task.Exit()
			return
		}
		m.rx.PopThen(sim.Cont{Fn: m.step, Arg: consWork})
	case consTook:
		if _, ok := m.rx.Result(); !ok {
			m.task.Exit()
			return
		}
		fallthrough
	case consWork:
		if m.sh.ConsWork > 0 {
			m.k.AfterFunc(m.sh.ConsWork, m.step, consForward)
			return
		}
		fallthrough
	case consForward:
		if m.tx != nil {
			m.tx.PushThen(payloadFor(0, m.i), sim.Cont{Fn: m.step, Arg: consDone})
			return
		}
		fallthrough
	case consDone:
		m.i++
		m.run(consNext)
	}
}

// payloadFor is the canonical payload of the i-th message of producer
// id — a Fibonacci-hash spread so every (id, i) pair maps to a distinct,
// non-trivial 64-bit value, and corrupted or cross-wired deliveries
// cannot alias to a valid payload by accident.
func payloadFor(id, i int) uint64 {
	return (uint64(id)<<32 | uint64(uint32(i))) * 0x9e3779b97f4a7c15
}

func (sh *Shape) buildChain(sys *spamer.System, scale int) {
	n := sh.Messages * scale
	queues := make([]*spamer.Queue, sh.Stages-1)
	for i := range queues {
		queues[i] = sys.NewQueue(fmt.Sprintf("chain.q%d", i))
	}
	sh.spawnProducer(sys, "chain/source", queues[0], 0, n)
	for s := 1; s < sh.Stages-1; s++ {
		sh.spawnConsumer(sys, fmt.Sprintf("chain/stage%d", s), &consumer{in: queues[s-1], out: queues[s], n: n})
	}
	sh.spawnConsumer(sys, "chain/sink", &consumer{in: queues[len(queues)-1], n: n})
}

func (sh *Shape) buildFan(sys *spamer.System, scale int) {
	nprod, ncons := sh.fan()
	per := sh.Messages * scale
	total := per * nprod
	q := sys.NewQueue("fan.q")
	for p := 0; p < nprod; p++ {
		sh.spawnProducer(sys, fmt.Sprintf("fan/prod%d", p), q, p, per)
	}
	if ncons == 1 {
		sh.spawnConsumer(sys, "fan/cons", &consumer{in: q, n: total})
		return
	}
	// The per-consumer share of an M:N queue is not static; drain
	// through a shared WorkCounter, as bitonic/pipeline do.
	wc := spamer.NewWorkCounter("fan", total)
	for c := 0; c < ncons; c++ {
		sh.spawnConsumer(sys, fmt.Sprintf("fan/cons%d", c), &consumer{in: q, wc: wc})
	}
}
