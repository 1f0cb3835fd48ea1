package workloads

import (
	"fmt"

	"spamer"
)

// The halo and sweep benchmarks share a 4x4 grid of threads with one
// directed 1:1 queue per neighbour direction: 24 undirected edges x 2
// directions = 48 queues, matching Table 2's (1:1)x48.
const (
	gridW = 4
	gridH = 4

	haloIters   = 120
	haloCompute = 40 // per-iteration local stencil work
	haloLines   = 4

	sweepIters   = 120
	sweepCompute = 100 // per-visit wavefront work
	sweepLines   = 2
)

type gridLinks struct {
	// q[from][to] is the directed queue from thread `from` to `to`.
	q map[[2]int]*spamer.Queue
}

func gid(x, y int) int { return y*gridW + x }

// neighbors returns the 4-neighbourhood of (x, y) inside the grid.
func neighbors(x, y int) [][2]int {
	out := make([][2]int, 0, 4)
	if x > 0 {
		out = append(out, [2]int{x - 1, y})
	}
	if x < gridW-1 {
		out = append(out, [2]int{x + 1, y})
	}
	if y > 0 {
		out = append(out, [2]int{x, y - 1})
	}
	if y < gridH-1 {
		out = append(out, [2]int{x, y + 1})
	}
	return out
}

func buildGridLinks(sys *spamer.System) *gridLinks {
	g := &gridLinks{q: map[[2]int]*spamer.Queue{}}
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			from := gid(x, y)
			for _, nb := range neighbors(x, y) {
				to := gid(nb[0], nb[1])
				g.q[[2]int{from, to}] = sys.NewQueue(fmt.Sprintf("link%d-%d", from, to))
			}
		}
	}
	return g
}

func init() {
	register(&Workload{
		Name:      "halo",
		Desc:      "exchange data with neighboring threads",
		QueueSpec: "(1:1)x48",
		Threads:   gridW * gridH,
		Build:     buildHalo,
	})
	register(&Workload{
		Name:      "sweep",
		Desc:      "data sweeps through a grid of threads corner to corner",
		QueueSpec: "(1:1)x48",
		Threads:   gridW * gridH,
		Build:     buildSweep,
	})
}

// halo: every iteration each thread pushes a boundary message to every
// neighbour, then computes, then pops one from every neighbour. Because
// all threads push before popping, producer data reaches the routing
// device ahead of consumer requests — plenty of speculation opportunity
// (§4.3 reports 1.33x on halo). A thread owns 2-4 queues, so lines are
// not always drained promptly; the unguided VL prerequests sometimes
// fail, which is why halo is the one benchmark where even the VL baseline
// shows a non-zero push failure rate (Figure 10a).
func buildHalo(sys *spamer.System, scale int) {
	iters := haloIters * scale
	g := buildGridLinks(sys)
	ms := make([]phased, gridW*gridH)
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			me := gid(x, y)
			nbs := neighbors(x, y)
			n := len(nbs)
			// Each neighbour link opens its producer, then its consumer.
			ends := make([]endpoint, 0, 2*n)
			for _, nb := range nbs {
				to := gid(nb[0], nb[1])
				ends = append(ends, endpoint{q: g.q[[2]int{me, to}], window: 4},
					endpoint{q: g.q[[2]int{to, me}], lines: haloLines})
			}
			m := &ms[me]
			*m = phased{
				ends: ends,
				// Interior work overlaps with the boundary messages
				// travelling; the demand requests go out only when the
				// thread turns to its queues — the "looping to pop a
				// queue" prerequest of §4.2. SPAMeR's speculative pushes
				// land during the compute phase instead, ahead of any
				// request.
				phases: []phase{
					{op: opPush, hi: n},
					{op: opCompute, d: haloCompute},
					{op: opPrefetch, hi: n},
					{op: opPop, hi: n},
				},
				iters: iters,
				tx:    make([]*spamer.Producer, 0, n),
				rx:    make([]*spamer.Consumer, 0, n),
			}
			m.Task = sys.SpawnFunc(fmt.Sprintf("halo/%d", me), m.run, 0)
		}
	}
}

// sweep: a wavefront crosses the grid from the top-left corner to the
// bottom-right (popping from up/left, pushing to down/right), then a
// second wavefront returns (popping from down/right, pushing to
// up/left), using all 48 directed queues. Each thread blocks on its
// predecessors, so data production is on the critical path and
// speculation gains little (Figure 8: ~1.0x on sweep).
func buildSweep(sys *spamer.System, scale int) {
	iters := sweepIters * scale
	g := buildGridLinks(sys)
	ms := make([]phased, gridW*gridH)
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			me := gid(x, y)
			from := func(nx, ny int) endpoint {
				return endpoint{q: g.q[[2]int{gid(nx, ny), me}], lines: sweepLines}
			}
			to := func(nx, ny int) endpoint {
				return endpoint{q: g.q[[2]int{me, gid(nx, ny)}], window: 2}
			}
			// An up/left link opens its consumer, then its producer; a
			// down/right link its producer, then its consumer. Either
			// way tx and rx list the ul up/left endpoints first.
			ends := make([]endpoint, 0, 8)
			if x > 0 {
				ends = append(ends, from(x-1, y), to(x-1, y))
			}
			if y > 0 {
				ends = append(ends, from(x, y-1), to(x, y-1))
			}
			ul := len(ends) / 2
			if x < gridW-1 {
				ends = append(ends, to(x+1, y), from(x+1, y))
			}
			if y < gridH-1 {
				ends = append(ends, to(x, y+1), from(x, y+1))
			}
			n := len(ends) / 2
			m := &ms[me]
			*m = phased{
				ends: ends,
				phases: []phase{
					// Forward wavefront.
					{op: opPop, hi: ul},
					{op: opCompute, d: sweepCompute},
					{op: opPush, lo: ul, hi: n},
					// Backward wavefront.
					{op: opPop, lo: ul, hi: n},
					{op: opCompute, d: sweepCompute},
					{op: opPush, hi: ul},
				},
				iters: iters,
				tx:    make([]*spamer.Producer, 0, n),
				rx:    make([]*spamer.Consumer, 0, n),
			}
			m.Task = sys.SpawnFunc(fmt.Sprintf("sweep/%d", me), m.run, 0)
		}
	}
}
