package workloads

import (
	"fmt"

	"spamer"
	"spamer/internal/sim"
)

// bitonic: parallel bitonic sort (Batcher [5]). The master scatters data
// blocks to worker threads through a (1:N) queue; workers run the
// compare-exchange network on their blocks (coarse compute) and return
// results through an (M:1) queue; the master merges. Table 2:
// (1:N)x1+(M:1)x1 with varying thread count (default N=M=4).
//
// Both queues are biased — the scatter producer starves its consumers
// (block preparation dominates) and the gather producerss are slow
// relative to the master — so speculation finds little producer data
// waiting and the Figure 8 speedup is near 1.0x.
const (
	bitonicWorkers  = 4
	bitonicBlocks   = 96  // divisible by workers
	bitonicPrep     = 220 // master: prepare one block for scatter
	bitonicSortWork = 900 // worker: compare-exchange network per block
	bitonicMerge    = 260 // master: merge one returned block
	bitonicLines    = 2
)

func init() {
	register(&Workload{
		Name:      "bitonic",
		Desc:      "sort with varying number of threads",
		QueueSpec: fmt.Sprintf("(1:%d)x1+(%d:1)x1", bitonicWorkers, bitonicWorkers),
		Threads:   bitonicWorkers + 1,
		Build: func(sys *spamer.System, scale int) {
			BuildBitonic(sys, bitonicWorkers, bitonicBlocks*scale)
		},
	})
}

// BuildBitonic constructs the bitonic pattern with an explicit worker
// count ("sort with varying number of threads"); blocks must be a
// multiple of workers.
func BuildBitonic(sys *spamer.System, workers, blocks int) {
	if blocks%workers != 0 {
		panic(fmt.Sprintf("bitonic: blocks %d not divisible by workers %d", blocks, workers))
	}
	scatter := sys.NewQueue("bitonic.scatter") // (1:N)
	gather := sys.NewQueue("bitonic.gather")   // (M:1)

	master := &bitonicMaster{scatter: scatter, gather: gather, workers: workers, blocks: blocks}
	master.Task = sys.SpawnFunc("bitonic/master", master.run, 0)

	// Workers drain the scatter queue dynamically (speculative rotation
	// distributes blocks approximately, not exactly, evenly).
	work := spamer.NewWorkCounter("bitonic.scatter", blocks)
	ws := make([]spamer.Stage, workers)
	for w := range ws {
		m := &ws[w]
		*m = spamer.Stage{In: scatter, Out: gather, Lines: bitonicLines, Shared: work, Work: bitonicSortWork}
		m.Spawn(sys, fmt.Sprintf("bitonic/worker%d", w))
	}
}

// bitonicMaster prepares and scatters the blocks, merging results as
// they come back, keeping at most 2*workers blocks in flight — pushing
// every block before popping any result would wedge the shared 64-entry
// prodBuf (scatter backlog plus gather results exceed it).
type bitonicMaster struct {
	*sim.Task
	scatter, gather *spamer.Queue
	workers, blocks int

	tx             *spamer.Producer
	rx             *spamer.Consumer
	pushed, popped int // blocks scattered, results merged
}

// bitonicMaster steps.
const (
	bmStart  uint64 = iota // open the endpoints
	bmNext                 // prepare the next block, or merge a result
	bmPush                 // scatter the prepared block
	bmPushed               // block scattered: merge a result once enough are in flight
	bmMerge                // result popped: merge it
	bmMerged               // result merged
)

func (m *bitonicMaster) run(state uint64) {
	switch state {
	case bmStart:
		m.tx = m.scatter.NewProducer(0)
		var pending bool
		m.rx, pending = m.gather.NewConsumerThen(2*m.workers, m.Then(bmNext))
		if pending {
			return
		}
		fallthrough
	case bmNext:
		if m.pushed < m.blocks {
			m.Compute(bitonicPrep, bmPush)
			return
		}
		if m.popped < m.blocks {
			m.rx.PopThen(m.Then(bmMerge))
			return
		}
		m.Exit()
	case bmPush:
		m.tx.PushThen(uint64(m.pushed), m.Then(bmPushed))
	case bmPushed:
		m.pushed++
		if m.pushed > 2*m.workers {
			m.rx.PopThen(m.Then(bmMerge))
			return
		}
		m.run(bmNext)
	case bmMerge:
		m.Compute(bitonicMerge, bmMerged)
	case bmMerged:
		m.popped++
		m.run(bmNext)
	}
}
