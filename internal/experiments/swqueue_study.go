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

// swChain: src -> stage -> sink over coherent software queues.
func swChain() uint64 {
	k := sim.New()
	k.SetDeadline(1 << 34)
	bus := noc.New(k)
	q1 := swqueue.NewCoherentQueue(k, bus, 4)
	q2 := swqueue.NewCoherentQueue(k, bus, 4)
	k.Go("src", func(p *sim.Proc) {
		for i := 0; i < swsMessages; i++ {
			p.Sleep(swsSrcWork)
			q1.Push(p, 0, mem.Message{Seq: uint64(i)})
		}
	})
	k.Go("mid", func(p *sim.Proc) {
		for i := 0; i < swsMessages; i++ {
			m := q1.Pop(p, 1)
			p.Sleep(swsMidWork)
			q2.Push(p, 1, m)
		}
	})
	k.Go("sink", func(p *sim.Proc) {
		for i := 0; i < swsMessages; i++ {
			q2.Pop(p, 2)
			p.Sleep(swsSinkWork)
		}
	})
	k.Run()
	return k.Now()
}

func hwChain(alg string) uint64 {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 34})
	q1 := sys.NewQueue("c1")
	q2 := sys.NewQueue("c2")
	sys.Spawn("src", func(t *spamer.Thread) {
		pr := q1.NewProducer(0)
		for i := 0; i < swsMessages; i++ {
			t.Compute(swsSrcWork)
			pr.Push(t.Proc, uint64(i))
		}
	})
	sys.Spawn("mid", func(t *spamer.Thread) {
		rx := q1.NewConsumer(t.Proc, 2)
		pr := q2.NewProducer(0)
		for i := 0; i < swsMessages; i++ {
			m := rx.Pop(t.Proc)
			t.Compute(swsMidWork)
			pr.Push(t.Proc, m.Payload)
		}
	})
	sys.Spawn("sink", func(t *spamer.Thread) {
		rx := q2.NewConsumer(t.Proc, 2)
		for i := 0; i < swsMessages; i++ {
			rx.Pop(t.Proc)
			t.Compute(swsSinkWork)
		}
	})
	return sys.Run().Ticks
}

// swIncast: 4 producers share one coherent queue — heavy tail/head line
// contention, the §1 scaling pathology.
func swIncast() uint64 {
	k := sim.New()
	k.SetDeadline(1 << 34)
	bus := noc.New(k)
	q := swqueue.NewCoherentQueue(k, bus, 8)
	per := swsMessages / 4
	for c := 0; c < 4; c++ {
		c := c
		k.Go("prod", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(swsSrcWork * 4)
				q.Push(p, c, mem.Message{Src: c, Seq: uint64(i)})
			}
		})
	}
	k.Go("master", func(p *sim.Proc) {
		for i := 0; i < swsMessages; i++ {
			q.Pop(p, 5)
			p.Sleep(swsSinkWork)
		}
	})
	k.Run()
	return k.Now()
}

func hwIncast(alg string) uint64 {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 34})
	q := sys.NewQueue("incast")
	per := swsMessages / 4
	for c := 0; c < 4; c++ {
		sys.Spawn("prod", func(t *spamer.Thread) {
			pr := q.NewProducer(0)
			for i := 0; i < per; i++ {
				t.Compute(swsSrcWork * 4)
				pr.Push(t.Proc, uint64(i))
			}
		})
	}
	sys.Spawn("master", func(t *spamer.Thread) {
		rx := q.NewConsumer(t.Proc, 8)
		for i := 0; i < swsMessages; i++ {
			rx.Pop(t.Proc)
			t.Compute(swsSinkWork)
		}
	})
	return sys.Run().Ticks
}
