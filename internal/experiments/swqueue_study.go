package experiments

import (
	"spamer"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/swqueue"
)

// SoftwareQueueStudyRow is one workload of the software-queue study,
// which extends the Figure 1 micro-comparison to application level: the same two small workloads (a 3-stage pipeline
// chain and a 4:1 incast) built three ways — on the MOESI-modelled
// coherent software queue, on Virtual-Link, and on SPAMeR — to show the
// end-to-end cost of coherence-based queue state that motivates
// hardware queues in the first place (§1-§2).
type SoftwareQueueStudyRow struct {
	Workload string
	SWTicks  uint64 // coherent software queue
	VLTicks  uint64
	SpTicks  uint64 // SPAMeR 0-delay
	// Speedups over the software queue.
	VLOverSW float64
	SpOverSW float64
}

const (
	swsMessages = 400
	swsSrcWork  = 20
	swsMidWork  = 30
	swsSinkWork = 20
)

// swStage is a thread of the software side: for each of n messages it
// pops message i from in[i % len(in)] (unless in is empty), hands it to
// onPop (if set), charges work cycles (0: none), and pushes to out
// (unless out is nil) the popped message or, at a source, message i of
// its core.
type swStage struct {
	in    []*swqueue.End
	out   *swqueue.End
	core  int
	n     int
	work  uint64
	onPop func(mem.Message)

	*sim.Task
	msg mem.Message
	i   int
}

// swStage steps.
const (
	swNext   uint64 = iota // pop message i, or exit after the last
	swWork                 // message i in hand: charge the work
	swPush                 // push message i
	swPushed               // message i done
)

func (m *swStage) spawn(k *sim.Kernel, name string) {
	m.Task = k.GoFunc(name, m.run, swNext)
}

func (m *swStage) run(state uint64) {
	switch state {
	case swNext:
		if m.i == m.n {
			m.Exit()
			return
		}
		if len(m.in) > 0 {
			m.in[m.i%len(m.in)].PopThen(m.Then(swWork))
			return
		}
		m.msg = mem.Message{Src: m.core, Seq: uint64(m.i)}
		m.Compute(m.work, swPush)
	case swWork:
		m.msg = m.in[m.i%len(m.in)].Result()
		if m.onPop != nil {
			m.onPop(m.msg)
		}
		m.Compute(m.work, swPush)
	case swPush:
		if m.out != nil {
			m.out.PushThen(m.msg, m.Then(swPushed))
			return
		}
		fallthrough
	case swPushed:
		m.i++
		m.run(swNext)
	}
}

// swChain: src -> stage -> sink over coherent software queues.
func swChain() uint64 {
	k := sim.New()
	k.SetDeadline(1 << 34)
	bus := noc.New(k)
	q1 := swqueue.NewCoherentQueue(k, bus, 4)
	q2 := swqueue.NewCoherentQueue(k, bus, 4)
	ts := []swStage{
		{out: q1.End(0), core: 0, n: swsMessages, work: swsSrcWork},
		{in: []*swqueue.End{q1.End(1)}, out: q2.End(1), core: 1, n: swsMessages, work: swsMidWork},
		{in: []*swqueue.End{q2.End(2)}, core: 2, n: swsMessages, work: swsSinkWork},
	}
	for i, name := range []string{"src", "mid", "sink"} {
		ts[i].spawn(k, name)
	}
	k.Run()
	return k.Now()
}

func hwChain(alg string) uint64 {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 34})
	q1 := sys.NewQueue("c1")
	q2 := sys.NewQueue("c2")
	(&spamer.Source{Out: q1, N: swsMessages, Work: swsSrcWork}).Spawn(sys, "src")
	(&spamer.Stage{In: q1, Lines: 2, Out: q2, N: swsMessages, Work: swsMidWork}).Spawn(sys, "mid")
	(&spamer.Stage{In: q2, Lines: 2, N: swsMessages, Work: swsSinkWork}).Spawn(sys, "sink")
	return sys.Run().Ticks
}

// swIncast: 4 producers feed one master, which sees each message it
// pops through onPop (nil: none). The coherent queue is SPSC, so each
// producer pushes into its own depth-2 queue (8 slots in all, as many
// as the lines the hardware side's master opens) and the master pops
// them round-robin: a multi-producer queue built from SPSC rings, whose
// every message moves a data line and ping-pongs its ring's control
// lines — the §1 scaling pathology.
func swIncast(onPop func(mem.Message)) uint64 {
	k := sim.New()
	k.SetDeadline(1 << 34)
	bus := noc.New(k)
	ts := make([]swStage, 5)
	ts[4] = swStage{core: 5, n: swsMessages, work: swsSinkWork, onPop: onPop}
	for c := 0; c < 4; c++ {
		q := swqueue.NewCoherentQueue(k, bus, 2)
		ts[c] = swStage{out: q.End(c), core: c, n: swsMessages / 4, work: swsSrcWork * 4}
		ts[c].spawn(k, "prod")
		ts[4].in = append(ts[4].in, q.End(5))
	}
	ts[4].spawn(k, "master")
	k.Run()
	return k.Now()
}

func hwIncast(alg string) uint64 {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 34})
	q := sys.NewQueue("incast")
	for c := 0; c < 4; c++ {
		(&spamer.Source{Out: q, N: swsMessages / 4, Work: swsSrcWork * 4}).Spawn(sys, "prod")
	}
	(&spamer.Stage{In: q, Lines: 8, N: swsMessages, Work: swsSinkWork}).Spawn(sys, "master")
	return sys.Run().Ticks
}
