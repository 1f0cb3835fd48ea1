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
// neighbour, then pops one from every neighbour, then computes. Because
// all threads push before popping, producer data reaches the routing
// device ahead of consumer requests — plenty of speculation opportunity
// (§4.3 reports 1.33x on halo). A thread owns 2-4 queues, so lines are
// not always drained promptly; the unguided VL prerequests sometimes
// fail, which is why halo is the one benchmark where even the VL baseline
// shows a non-zero push failure rate (Figure 10a).
func buildHalo(sys *spamer.System, scale int) {
	iters := haloIters * scale
	g := buildGridLinks(sys)
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			x, y := x, y
			me := gid(x, y)
			sys.Spawn(fmt.Sprintf("halo/%d", me), func(t *spamer.Thread) {
				nbs := neighbors(x, y)
				tx := make([]*spamer.Producer, len(nbs))
				rx := make([]*spamer.Consumer, len(nbs))
				for i, nb := range nbs {
					to := gid(nb[0], nb[1])
					tx[i] = g.q[[2]int{me, to}].NewProducer(4)
					rx[i] = g.q[[2]int{to, me}].NewConsumer(t.Proc, haloLines)
				}
				for it := 0; it < iters; it++ {
					for _, p := range tx {
						p.Push(t.Proc, uint64(it))
					}
					// Interior work overlaps with the boundary
					// messages travelling; the demand requests go out
					// only when the thread turns to its queues — the
					// "looping to pop a queue" prerequest of §4.2.
					// SPAMeR's speculative pushes land during the
					// compute phase instead, ahead of any request.
					t.Compute(haloCompute)
					for _, c := range rx {
						c.Prefetch(t.Proc)
					}
					for _, c := range rx {
						c.Pop(t.Proc)
					}
				}
			})
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
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			x, y := x, y
			me := gid(x, y)
			sys.Spawn(fmt.Sprintf("sweep/%d", me), func(t *spamer.Thread) {
				// Forward-sweep edges: from up/left, to down/right.
				var fromUpLeft, fromDownRight []*spamer.Consumer
				var toDownRight, toUpLeft []*spamer.Producer
				if x > 0 {
					fromUpLeft = append(fromUpLeft, g.q[[2]int{gid(x-1, y), me}].NewConsumer(t.Proc, sweepLines))
					toUpLeft = append(toUpLeft, g.q[[2]int{me, gid(x-1, y)}].NewProducer(2))
				}
				if y > 0 {
					fromUpLeft = append(fromUpLeft, g.q[[2]int{gid(x, y-1), me}].NewConsumer(t.Proc, sweepLines))
					toUpLeft = append(toUpLeft, g.q[[2]int{me, gid(x, y-1)}].NewProducer(2))
				}
				if x < gridW-1 {
					toDownRight = append(toDownRight, g.q[[2]int{me, gid(x+1, y)}].NewProducer(2))
					fromDownRight = append(fromDownRight, g.q[[2]int{gid(x+1, y), me}].NewConsumer(t.Proc, sweepLines))
				}
				if y < gridH-1 {
					toDownRight = append(toDownRight, g.q[[2]int{me, gid(x, y+1)}].NewProducer(2))
					fromDownRight = append(fromDownRight, g.q[[2]int{gid(x, y+1), me}].NewConsumer(t.Proc, sweepLines))
				}
				for it := 0; it < iters; it++ {
					// Forward wavefront.
					for _, c := range fromUpLeft {
						c.Pop(t.Proc)
					}
					t.Compute(sweepCompute)
					for _, p := range toDownRight {
						p.Push(t.Proc, uint64(it))
					}
					// Backward wavefront.
					for _, c := range fromDownRight {
						c.Pop(t.Proc)
					}
					t.Compute(sweepCompute)
					for _, p := range toUpLeft {
						p.Push(t.Proc, uint64(it))
					}
				}
			})
		}
	}
}
