package workloads

import (
	"spamer"
	"spamer/internal/sim"
)

// firewall: filter and dispatch packages (after Wang et al. [46]).
//
//	rx --(1:1)--> classify --(1:1)--> fw1 --\
//	                      \--(1:1)--> fw2 ---+--(2:1)--> sink
//
// Three 1:1 queues plus one 2:1 merge queue: Table 2's (1:1)x3+(2:1)x1,
// five threads. Filter workers are lightweight relative to the request
// round trip, so speculation keeps them on the fast path.
const (
	fwPackets   = 1600 // even, so fw1/fw2 split evenly
	fwRxWork    = 20   // receive/checksum
	fwClsWork   = 50   // classification
	fwFilter    = 65   // per-packet filtering
	fwSinkWork  = 20   // verdict logging
	fwLines     = 4
	fwSinkLines = 8
)

func init() {
	register(&Workload{
		Name:      "firewall",
		Desc:      "filter and dispatch packages",
		QueueSpec: "(1:1)x3+(2:1)x1",
		Threads:   5,
		Build:     buildFirewall,
	})
}

func buildFirewall(sys *spamer.System, scale int) {
	n := fwPackets * scale
	qRx := sys.NewQueue("fw.rx")     // rx -> classify (1:1)
	qF1 := sys.NewQueue("fw.lane1")  // classify -> fw1 (1:1)
	qF2 := sys.NewQueue("fw.lane2")  // classify -> fw2 (1:1)
	qOut := sys.NewQueue("fw.merge") // fw1+fw2 -> sink (2:1)

	rx := &spamer.Source{Out: qRx, Work: fwRxWork, N: n}
	rx.Spawn(sys, "firewall/rx")

	cls := &classifier{in: qRx, lanes: [2]*spamer.Queue{qF1, qF2}, n: n}
	cls.Task = sys.SpawnFunc("firewall/classify", cls.run, 0)

	cs := make([]spamer.Stage, 3)
	for lane, q := range []*spamer.Queue{qF1, qF2} {
		m := &cs[lane]
		*m = spamer.Stage{In: q, Out: qOut, Lines: fwLines, N: n / 2, Work: fwFilter}
		m.Spawn(sys, "firewall/fw"+string(rune('1'+lane)))
	}

	sink := &cs[2]
	*sink = spamer.Stage{In: qOut, Lines: fwSinkLines, N: n, Work: fwSinkWork}
	sink.Spawn(sys, "firewall/sink")
}

// classifier is the firewall's classify thread: it pops each packet,
// classifies it, and dispatches it to a filter lane.
type classifier struct {
	*sim.Task
	in    *spamer.Queue
	lanes [2]*spamer.Queue
	n     int

	rx *spamer.Consumer
	tx [2]*spamer.Producer
	i  int // packets dispatched
}

// classifier steps.
const (
	clsStart      uint64 = iota // open the input endpoint
	clsOpened                   // input registered: open the lanes
	clsNext                     // pop packet i, or exit after the last
	clsPopped                   // packet i popped: classify it
	clsClassified               // dispatch packet i
	clsDone                     // packet i dispatched
)

func (m *classifier) run(state uint64) {
	switch state {
	case clsStart:
		var pending bool
		m.rx, pending = m.in.NewConsumerThen(fwLines, m.Then(clsOpened))
		if pending {
			return
		}
		fallthrough
	case clsOpened:
		m.tx = [2]*spamer.Producer{m.lanes[0].NewProducer(0), m.lanes[1].NewProducer(0)}
		fallthrough
	case clsNext:
		if m.i == m.n {
			m.Exit()
			return
		}
		m.rx.PopThen(m.Then(clsPopped))
	case clsPopped:
		m.Compute(fwClsWork, clsClassified)
	case clsClassified:
		msg, _ := m.rx.Result()
		// Deterministic 5-tuple hash stand-in: alternate lanes.
		m.tx[int(msg.Payload)%2].PushThen(msg.Payload, m.Then(clsDone))
	case clsDone:
		m.i++
		m.run(clsNext)
	}
}
