package workloads

import (
	"fmt"

	"spamer"
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

// produce pushes n messages with the shape's work/burst pattern. The
// payload mixes the producer id into a multiplicative hash so corrupted
// or cross-wired deliveries cannot alias to a valid payload by accident.
func (sh *Shape) produce(t *spamer.Thread, tx *spamer.Producer, id, n int) {
	if sh.Arrival != nil {
		sh.produceOpen(t, tx, id, n)
		return
	}
	for i := 0; i < n; i++ {
		if sh.ProdWork > 0 {
			t.Compute(sh.ProdWork)
		}
		if sh.Burst > 0 && i > 0 && i%sh.Burst == 0 {
			t.Compute(sh.burstGap())
		}
		tx.Push(t.Proc, payloadFor(id, i))
	}
}

// arrivalChunk sizes the pooled arrival-record block each open-loop
// producer refills in place — large enough to amortize the refill loop,
// small enough to stay cache-resident.
const arrivalChunk = 256

// produceOpen pushes n messages on the open-loop schedule drawn from
// sh.Arrival: the producer idles until each arrival tick, then pushes.
// A producer that falls behind (the queue window stalled it past the
// next arrival) pushes immediately — the schedule never slips, which is
// the open-loop contract. One chunk buffer is reused for the whole run,
// so the steady state allocates nothing per message.
func (sh *Shape) produceOpen(t *spamer.Thread, tx *spamer.Producer, id, n int) {
	src := traffic.NewSource(*sh.Arrival, id)
	buf := make([]uint64, arrivalChunk)
	if n < len(buf) {
		buf = buf[:n]
	}
	done := 0
	for done < n {
		src.Fill(buf)
		for _, at := range buf {
			if done >= n {
				break
			}
			if now := t.Now(); now < at {
				t.Compute(at - now)
			}
			if sh.ProdWork > 0 {
				t.Compute(sh.ProdWork)
			}
			tx.Push(t.Proc, payloadFor(id, done))
			done++
		}
	}
}

// payloadFor is the canonical payload of the i-th message of producer
// id — a Fibonacci-hash spread so every (id, i) pair maps to a distinct,
// non-trivial 64-bit value.
func payloadFor(id, i int) uint64 {
	return (uint64(id)<<32 | uint64(uint32(i))) * 0x9e3779b97f4a7c15
}

func (sh *Shape) buildChain(sys *spamer.System, scale int) {
	n := sh.Messages * scale
	queues := make([]*spamer.Queue, sh.Stages-1)
	for i := range queues {
		queues[i] = sys.NewQueue(fmt.Sprintf("chain.q%d", i))
	}
	sys.Spawn("chain/source", func(t *spamer.Thread) {
		tx := queues[0].NewProducer(sh.Window)
		sh.produce(t, tx, 0, n)
	})
	for s := 1; s < sh.Stages-1; s++ {
		s := s
		sys.Spawn(fmt.Sprintf("chain/stage%d", s), func(t *spamer.Thread) {
			rx := queues[s-1].NewConsumer(t.Proc, sh.lines())
			tx := queues[s].NewProducer(sh.Window)
			for i := 0; i < n; i++ {
				rx.Pop(t.Proc)
				if sh.ConsWork > 0 {
					t.Compute(sh.ConsWork)
				}
				tx.Push(t.Proc, payloadFor(0, i))
			}
		})
	}
	sys.Spawn("chain/sink", func(t *spamer.Thread) {
		rx := queues[len(queues)-1].NewConsumer(t.Proc, sh.lines())
		for i := 0; i < n; i++ {
			rx.Pop(t.Proc)
			if sh.ConsWork > 0 {
				t.Compute(sh.ConsWork)
			}
		}
	})
}

func (sh *Shape) buildFan(sys *spamer.System, scale int) {
	nprod, ncons := sh.fan()
	per := sh.Messages * scale
	total := per * nprod
	q := sys.NewQueue("fan.q")
	for p := 0; p < nprod; p++ {
		p := p
		sys.Spawn(fmt.Sprintf("fan/prod%d", p), func(t *spamer.Thread) {
			tx := q.NewProducer(sh.Window)
			sh.produce(t, tx, p, per)
		})
	}
	if ncons == 1 {
		sys.Spawn("fan/cons", func(t *spamer.Thread) {
			rx := q.NewConsumer(t.Proc, sh.lines())
			for i := 0; i < total; i++ {
				rx.Pop(t.Proc)
				if sh.ConsWork > 0 {
					t.Compute(sh.ConsWork)
				}
			}
		})
		return
	}
	// The per-consumer share of an M:N queue is not static; drain
	// through a shared WorkCounter, as bitonic/pipeline do.
	wc := spamer.NewWorkCounter("fan", total)
	for c := 0; c < ncons; c++ {
		c := c
		sys.Spawn(fmt.Sprintf("fan/cons%d", c), func(t *spamer.Thread) {
			rx := q.NewConsumer(t.Proc, sh.lines())
			for {
				_, ok := wc.Take(rx, t.Proc)
				if !ok {
					return
				}
				if sh.ConsWork > 0 {
					t.Compute(sh.ConsWork)
				}
			}
		})
	}
}
