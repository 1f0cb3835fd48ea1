package workloads

import (
	"spamer"
)

// ping-pong: two threads exchange a message back and forth through two
// 1:1 queues (Ember's PingPong motif). Data production sits on the
// critical path — each side can only reply after receiving — so
// speculation has nothing to overlap: "the consumers in those benchmarks
// are always ready ahead while the data production is on the critical
// path" (§4.3). Expected Figure 8 outcome: ~1.0x.
const (
	pingPongRounds  = 1200
	pingPongCompute = 60 // per-hop processing before replying
	pingPongLines   = 2
)

func init() {
	register(&Workload{
		Name:      "ping-pong",
		Desc:      "data back and forth between two threads",
		QueueSpec: "(1:1)x2",
		Threads:   2,
		Build:     buildPingPong,
	})
}

func buildPingPong(sys *spamer.System, scale int) {
	rounds := pingPongRounds * scale
	ab := sys.NewQueue("ping") // A -> B
	ba := sys.NewQueue("pong") // B -> A

	sys.Spawn("ping-pong/A", func(t *spamer.Thread) {
		tx := ab.NewProducer(0)
		rx := ba.NewConsumer(t.Proc, pingPongLines)
		for i := 0; i < rounds; i++ {
			tx.Push(t.Proc, uint64(i))
			rx.Pop(t.Proc)
			t.Compute(pingPongCompute)
		}
	})
	sys.Spawn("ping-pong/B", func(t *spamer.Thread) {
		rx := ab.NewConsumer(t.Proc, pingPongLines)
		tx := ba.NewProducer(0)
		for i := 0; i < rounds; i++ {
			m := rx.Pop(t.Proc)
			t.Compute(pingPongCompute)
			tx.Push(t.Proc, m.Payload)
		}
	})
}
