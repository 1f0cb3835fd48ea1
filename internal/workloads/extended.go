package workloads

import (
	"fmt"

	"spamer"
)

// Extended benchmarks beyond the paper's Table 2 suite, derived from
// the same Ember communication-pattern library the paper draws
// ping-pong/halo/sweep/incast from. They are kept out of All() (which
// reproduces the paper's figure set exactly) and exposed via Extended().

var extendedRegistry []*Workload

func registerExtended(w *Workload) {
	extendedRegistry = append(extendedRegistry, w)
}

// Extended returns the additional benchmarks.
func Extended() []*Workload {
	out := make([]*Workload, len(extendedRegistry))
	copy(out, extendedRegistry)
	return out
}

// ExtendedByName looks an extended benchmark up.
func ExtendedByName(name string) (*Workload, bool) {
	for _, w := range extendedRegistry {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

const (
	// allreduce: recursive-doubling butterfly over 8 ranks.
	allreduceRanks   = 8
	allreduceIters   = 80
	allreduceCompute = 60

	// alltoall: every rank sends one block to every other rank.
	alltoallRanks   = 6
	alltoallIters   = 50
	alltoallCompute = 80

	// reduce: binary-tree reduction to rank 0.
	reduceRanks   = 8
	reduceIters   = 100
	reduceCompute = 70
)

func init() {
	registerExtended(&Workload{
		Name:      "allreduce",
		Desc:      "recursive-doubling allreduce over 8 ranks",
		QueueSpec: fmt.Sprintf("(1:1)x%d", allreduceRanks*log2(allreduceRanks)*2),
		Threads:   allreduceRanks,
		Build:     buildAllreduce,
	})
	registerExtended(&Workload{
		Name:      "alltoall",
		Desc:      "personalized all-to-all exchange over 6 ranks",
		QueueSpec: fmt.Sprintf("(1:1)x%d", alltoallRanks*(alltoallRanks-1)),
		Threads:   alltoallRanks,
		Build:     buildAlltoall,
	})
	registerExtended(&Workload{
		Name:      "reduce",
		Desc:      "binary-tree reduction to the root over 8 ranks",
		QueueSpec: fmt.Sprintf("(1:1)x%d", reduceRanks-1),
		Threads:   reduceRanks,
		Build:     buildReduce,
	})
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// The collectives are phased threads: each rank opens its endpoints,
// then runs one fixed phase list per iteration. A push carries the
// iteration number; the partial sums a rank would combine take no
// simulated time beyond the combine computes, so they are not modelled.

// buildAllreduce: recursive doubling — in round r, rank i exchanges with
// rank i XOR 2^r; after log2(N) rounds every rank holds the reduction.
// Each directed pair link is one 1:1 queue per round direction.
func buildAllreduce(sys *spamer.System, scale int) {
	rounds := log2(allreduceRanks)
	// q[r][i] is the queue rank i uses to send in round r (to i^2^r).
	q := make([][]*spamer.Queue, rounds)
	for r := 0; r < rounds; r++ {
		q[r] = make([]*spamer.Queue, allreduceRanks)
		for i := 0; i < allreduceRanks; i++ {
			q[r][i] = sys.NewQueue(fmt.Sprintf("ar.r%d.%d", r, i))
		}
	}
	// Each iteration: a local partial reduction, then per round a send
	// to the peer, a receive from it and a combine.
	phases := []phase{{op: opCompute, d: allreduceCompute}}
	for r := 0; r < rounds; r++ {
		phases = append(phases,
			phase{op: opPush, lo: r, hi: r + 1},
			phase{op: opPop, lo: r, hi: r + 1},
			phase{op: opCompute, d: 12})
	}
	ranks := make([]phased, allreduceRanks)
	for i := range ranks {
		var ends []endpoint
		for r := 0; r < rounds; r++ {
			peer := i ^ (1 << r)
			ends = append(ends, endpoint{q: q[r][i], window: 2}, endpoint{q: q[r][peer], lines: 2})
		}
		m := &ranks[i]
		*m = phased{ends: ends, phases: phases, iters: allreduceIters * scale}
		m.spawn(sys, fmt.Sprintf("allreduce/%d", i), m.run)
	}
}

// buildAlltoall: each iteration every rank sends a personalized block to
// every other rank, then receives N-1 blocks.
func buildAlltoall(sys *spamer.System, scale int) {
	// q[i][j] is rank i's queue to rank j.
	q := map[[2]int]*spamer.Queue{}
	for i := 0; i < alltoallRanks; i++ {
		for j := 0; j < alltoallRanks; j++ {
			if i != j {
				q[[2]int{i, j}] = sys.NewQueue(fmt.Sprintf("a2a.%d-%d", i, j))
			}
		}
	}
	// Send to every peer, overlap compute with transit, prefetch every
	// inbound block, then pop them.
	peers := alltoallRanks - 1
	phases := []phase{
		{op: opPush, hi: peers},
		{op: opCompute, d: alltoallCompute},
		{op: opPrefetch, hi: peers},
		{op: opPop, hi: peers},
	}
	ranks := make([]phased, alltoallRanks)
	for i := range ranks {
		var ends []endpoint
		for j := 0; j < alltoallRanks; j++ {
			if j != i {
				ends = append(ends, endpoint{q: q[[2]int{i, j}], window: 2}, endpoint{q: q[[2]int{j, i}], lines: 2})
			}
		}
		m := &ranks[i]
		*m = phased{ends: ends, phases: phases, iters: alltoallIters * scale}
		m.spawn(sys, fmt.Sprintf("alltoall/%d", i), m.run)
	}
}

// buildReduce: leaves push partial sums up a binary tree; interior ranks
// combine two children and forward; rank 0 holds the result.
func buildReduce(sys *spamer.System, scale int) {
	// up[i] carries rank i's contribution to its parent (i-1)/2.
	up := make([]*spamer.Queue, reduceRanks)
	for i := 1; i < reduceRanks; i++ {
		up[i] = sys.NewQueue(fmt.Sprintf("red.up%d", i))
	}
	ranks := make([]phased, reduceRanks)
	for i := range ranks {
		// Produce the local partial, receive and combine each child's,
		// then send the sum to the parent (rank 0 has none).
		var ends []endpoint
		if i != 0 {
			ends = append(ends, endpoint{q: up[i], window: 2})
		}
		phases := []phase{{op: opCompute, d: reduceCompute}}
		for rx, c := range []int{2*i + 1, 2*i + 2} {
			if c >= reduceRanks {
				break
			}
			ends = append(ends, endpoint{q: up[c], lines: 2})
			phases = append(phases, phase{op: opPop, lo: rx, hi: rx + 1}, phase{op: opCompute, d: 10})
		}
		if i != 0 {
			phases = append(phases, phase{op: opPush, hi: 1})
		}
		m := &ranks[i]
		*m = phased{ends: ends, phases: phases, iters: reduceIters * scale}
		m.spawn(sys, fmt.Sprintf("reduce/%d", i), m.run)
	}
}
