// Package swqueue provides the software message-queue baseline the
// paper positions SPAMeR against: a cycle-modelled coherence-based
// software queue whose cost structure follows the MOESI snoop/
// invalidation flow of Figure 1a. It drives the Figure 1 latency
// comparison (Lc: coherence queue > Lv: Virtual-Link > Ls: SPAMeR) and
// the application-level software-queue study.
package swqueue

import (
	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
)

// CoherentQueue is a cycle-modelled software SPSC queue living in
// coherent shared memory — the baseline of Figure 1a. Every transfer of
// the queue's shared state (head/tail indices and the data line) between
// the producer's and the consumer's cache follows the MOESI flow: a
// snoop/invalidation round trip on the coherence network, then the data
// response. The cost structure is what makes hardware queues attractive:
// each message moves the data line AND ping-pongs the control lines.
type CoherentQueue struct {
	k   *sim.Kernel
	bus *noc.Bus

	depth int
	buf   []mem.Message
	head  uint64
	tail  uint64

	// Which core's cache currently owns each shared line (-1 = memory).
	tailOwner int // producer-written control line
	headOwner int // consumer-written control line
	dataOwner map[uint64]int

	onChange *sim.Signal

	stats CoherentStats
}

// CoherentStats counts coherence traffic.
type CoherentStats struct {
	Transfers   uint64 // cache-to-cache line transfers
	Invalidates uint64
	Messages    uint64
}

// NewCoherentQueue returns a queue of the given depth shared between
// two cores on the bus.
func NewCoherentQueue(k *sim.Kernel, bus *noc.Bus, depth int) *CoherentQueue {
	if depth <= 0 {
		depth = 8
	}
	return &CoherentQueue{
		k:         k,
		bus:       bus,
		depth:     depth,
		buf:       make([]mem.Message, depth),
		tailOwner: -1,
		headOwner: -1,
		dataOwner: make(map[uint64]int),
		onChange:  sim.NewSignal("coherent.change"),
	}
}

// Stats returns the traffic counters.
func (q *CoherentQueue) Stats() CoherentStats { return q.stats }

// acquire models core `core` upgrading a line to exclusive/modified:
// if another cache owns it, a snoop + invalidation + data response
// crosses the network; the caller's process pays the latency.
func (q *CoherentQueue) acquire(p *sim.Proc, owner *int, core int) {
	if *owner == core {
		p.Sleep(config.L1HitCycles)
		return
	}
	q.stats.Transfers++
	if *owner != -1 {
		q.stats.Invalidates++
	}
	// Snoop request out, data response back (cache-to-cache), each a
	// control or data packet on the coherence network.
	done := sim.NewSignal("coherent.acquire")
	q.bus.Send(noc.PktCoherence, func() {
		q.bus.Send(noc.PktCoherence, func() {
			done.Fire()
		})
	})
	done.Wait(p)
	p.Sleep(config.L2HitCycles) // directory/LLC lookup on the way
	*owner = core
}

// Push enqueues a message from the producer core, spinning (with
// re-acquired lines, as a real spin would) while the queue is full.
func (q *CoherentQueue) Push(p *sim.Proc, core int, msg mem.Message) {
	for {
		// Read the consumer-owned head to check fullness: acquiring
		// shared suffices, but the subsequent write to tail upgrades.
		q.acquire(p, &q.headOwner, core)
		if q.tail-q.head < uint64(q.depth) {
			break
		}
		sim.WaitUntil(p, q.onChange, func() bool { return q.tail-q.head < uint64(q.depth) })
	}
	slot := q.tail % uint64(q.depth)
	q.acquireData(p, core, slot)
	q.buf[slot] = msg
	q.acquire(p, &q.tailOwner, core)
	q.tail++
	q.stats.Messages++
	q.onChange.Fire()
}

// acquireData upgrades the data line of a slot into core's cache.
func (q *CoherentQueue) acquireData(p *sim.Proc, core int, slot uint64) {
	cur, ok := q.dataOwner[slot]
	if !ok {
		cur = -1
	}
	q.acquire(p, &cur, core)
	q.dataOwner[slot] = core
}

// Pop dequeues a message at the consumer core, spinning while empty.
func (q *CoherentQueue) Pop(p *sim.Proc, core int) mem.Message {
	for {
		q.acquire(p, &q.tailOwner, core)
		if q.tail > q.head {
			break
		}
		sim.WaitUntil(p, q.onChange, func() bool { return q.tail > q.head })
	}
	slot := q.head % uint64(q.depth)
	q.acquireData(p, core, slot)
	msg := q.buf[slot]
	q.acquire(p, &q.headOwner, core)
	q.head++
	q.onChange.Fire()
	return msg
}

// Len reports the current occupancy.
func (q *CoherentQueue) Len() int { return int(q.tail - q.head) }
