package workloads

import (
	"fmt"

	"spamer"
	"spamer/internal/sim"
)

// pipeline: a 4-stage packet-processing pipeline with multi-threaded
// middle stages (after Wang et al.'s CAF workloads [46]):
//
//	source(1) --(1:4)--> parse(4) --(4:4)--> process(4) --(4:1)--> sink(1)
//	   ^                                                             |
//	   +-------------------------- (1:1) credits ---------------------+
//
// The (1:1) queue carries batch credits from the sink back to the source,
// bounding run-ahead to pipeDepth batches — the fourth queue of Table 2's
// (1:4)x1+(4:4)x1+(4:1)x1+(1:1)x1.
const (
	pipeWorkers  = 4
	pipeMessages = 1600 // divisible by pipeWorkers and pipeBatch
	pipeBatch    = 80
	pipeDepth    = 4  // batches in flight before the source needs a credit
	pipeSrcWork  = 42 // per-packet generation
	pipeMidWork  = 75 // per-packet parse/process
	pipeSinkWork = 30 // per-packet retirement
	pipeLines    = 4
)

func init() {
	register(&Workload{
		Name:      "pipeline",
		Desc:      "4-stage pipeline with middle stages multi-threaded",
		QueueSpec: "(1:4)x1+(4:4)x1+(4:1)x1+(1:1)x1",
		Threads:   2 + 2*pipeWorkers,
		Build:     buildPipeline,
	})
}

func buildPipeline(sys *spamer.System, scale int) {
	n := pipeMessages * scale
	q1 := sys.NewQueue("pipe.s0s1") // (1:4)
	q2 := sys.NewQueue("pipe.s1s2") // (4:4)
	q3 := sys.NewQueue("pipe.s2s3") // (4:1)
	qc := sys.NewQueue("pipe.cred") // (1:1) sink -> source

	src := &pipeSource{out: q1, credits: qc, n: n}
	src.Task = sys.SpawnFunc("pipeline/source", src.run, 0)

	// The middle stages drain their queues dynamically: under
	// speculative rotation the per-worker share is approximate, so the
	// workers share a WorkCounter instead of fixed pop counts.
	parseWork := spamer.NewWorkCounter("pipe.parse", n)
	processWork := spamer.NewWorkCounter("pipe.process", n)
	ws := make([]spamer.Stage, 2*pipeWorkers)
	for w := 0; w < pipeWorkers; w++ {
		parse, process := &ws[2*w], &ws[2*w+1]
		*parse = spamer.Stage{In: q1, Out: q2, Lines: pipeLines, Shared: parseWork, Work: pipeMidWork}
		parse.Spawn(sys, fmt.Sprintf("pipeline/parse%d", w))
		*process = spamer.Stage{In: q2, Out: q3, Lines: pipeLines, Shared: processWork, Work: pipeMidWork}
		process.Spawn(sys, fmt.Sprintf("pipeline/process%d", w))
	}

	sink := &pipeSink{in: q3, credits: qc, n: n}
	sink.Task = sys.SpawnFunc("pipeline/sink", sink.run, 0)
}

// pipeSource generates the n packets, waiting for a retired batch's
// credit before each batch past the first pipeDepth.
type pipeSource struct {
	*sim.Task
	out, credits *spamer.Queue
	n            int

	tx *spamer.Producer
	cr *spamer.Consumer
	i  int // packets pushed
}

// pipeSource steps.
const (
	psStart  uint64 = iota // open the endpoints
	psNext                 // packet i: wait for a credit at a batch boundary
	psWork                 // generate packet i
	psPush                 // push packet i
	psPushed               // packet i pushed
)

func (m *pipeSource) run(state uint64) {
	switch state {
	case psStart:
		m.tx = m.out.NewProducer(0)
		var pending bool
		m.cr, pending = m.credits.NewConsumerThen(2, m.Then(psNext))
		if pending {
			return
		}
		fallthrough
	case psNext:
		if m.i == m.n {
			m.Exit()
			return
		}
		if m.i%pipeBatch == 0 && m.i/pipeBatch >= pipeDepth {
			m.cr.PopThen(m.Then(psWork))
			return
		}
		fallthrough
	case psWork:
		m.Compute(pipeSrcWork, psPush)
	case psPush:
		m.tx.PushThen(uint64(m.i), m.Then(psPushed))
	case psPushed:
		m.i++
		m.run(psNext)
	}
}

// pipeSink retires the n packets, returning a credit to the source
// after each retired batch until the source has all it waits for.
type pipeSink struct {
	*sim.Task
	in, credits *spamer.Queue
	n           int

	rx      *spamer.Consumer
	cr      *spamer.Producer
	i       int // packets retired
	granted int // credits returned
}

// pipeSink steps.
const (
	pkStart   uint64 = iota // open the input endpoint
	pkOpened                // input registered: open the credit endpoint
	pkNext                  // pop packet i, or exit after the last
	pkRetire                // packet i popped: retire it
	pkRetired               // packet i retired: return a credit at a batch end
	pkDone                  // packet i done
)

func (m *pipeSink) run(state uint64) {
	switch state {
	case pkStart:
		var pending bool
		m.rx, pending = m.in.NewConsumerThen(pipeLines, m.Then(pkOpened))
		if pending {
			return
		}
		fallthrough
	case pkOpened:
		m.cr = m.credits.NewProducer(0)
		fallthrough
	case pkNext:
		if m.i == m.n {
			m.Exit()
			return
		}
		m.rx.PopThen(m.Then(pkRetire))
	case pkRetire:
		m.Compute(pipeSinkWork, pkRetired)
	case pkRetired:
		if (m.i+1)%pipeBatch == 0 && m.granted < m.n/pipeBatch-pipeDepth {
			m.cr.PushThen(uint64(m.granted), m.Then(pkDone))
			m.granted++
			return
		}
		fallthrough
	case pkDone:
		m.i++
		m.run(pkNext)
	}
}
