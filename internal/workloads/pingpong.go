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

	// A pushes round i, pops the reply, then processes it; B pops, then
	// processes, then replies with the payload it popped.
	a := &phased{
		ends: []endpoint{{q: ab}, {q: ba, lines: pingPongLines}},
		phases: []phase{
			{op: opPush, hi: 1},
			{op: opPop, hi: 1},
			{op: opCompute, d: pingPongCompute},
		},
		iters: rounds,
		tx:    make([]*spamer.Producer, 0, 1),
		rx:    make([]*spamer.Consumer, 0, 1),
	}
	a.spawn(sys, "ping-pong/A", a.run)
	b := &spamer.Stage{In: ab, Out: ba, Lines: pingPongLines, N: rounds, Work: pingPongCompute}
	b.Spawn(sys, "ping-pong/B")
}
