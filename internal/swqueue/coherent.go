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
// Threads reach it through per-core handles (End). It is single-producer
// single-consumer: an End picks its slot before it acquires the slot's
// data line and publishes it after, so two pushing (or popping) Ends
// would share slots. A second End that pushes, or pops, panics.
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

	// The two hops of a line transfer, bound once. A hop event's
	// argument is the acquiring End's index in ends.
	snoopFn, dataFn func(uint64)
	ends            []*End
	pusher, popper  *End // the one End that pushes, and the one that pops

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
	q := &CoherentQueue{
		k:         k,
		bus:       bus,
		depth:     depth,
		buf:       make([]mem.Message, depth),
		tailOwner: -1,
		headOwner: -1,
		dataOwner: make(map[uint64]int),
		onChange:  sim.NewSignal("coherent.change"),
	}
	q.snoopFn, q.dataFn = q.snooped, q.arrived
	return q
}

// Stats returns the traffic counters.
func (q *CoherentQueue) Stats() CoherentStats { return q.stats }

// Len reports the current occupancy.
func (q *CoherentQueue) Len() int { return int(q.tail - q.head) }

// End is one core's handle on the queue. Its operations are
// continuation-passing state machines on the kernel goroutine: PushThen
// and PopThen start one and return, each charged delay is one event, and
// the continuation runs when the operation completes. One
// operation per End is in flight at a time.
type End struct {
	q    *CoherentQueue
	core int
	idx  uint64 // index in q.ends
	step func(uint64)
	cell sim.WaitCell // waits on q.onChange

	then  sim.Cont
	msg   mem.Message // the message pushed, or popped
	slot  uint64      // the buffer slot the operation uses
	owner *int        // the line being acquired
	cur   int         // owner of the slot's data line while acquiring it
	next  uint64      // the step to run once the line is acquired
}

// End step states.
const (
	endHop   uint64 = iota // the data response landed: directory lookup on the way
	endOwned               // the line is acquired: record the owner, run next
	pushHead               // head line held: check for room
	pushRoom               // the queue changed: room yet?
	pushData               // data line held: write the slot
	pushTail               // tail line held: publish the message
	popTail                // tail line held: check for a message
	popAny                 // the queue changed: a message yet?
	popData                // data line held: read the slot
	popHead                // head line held: release the slot
)

// End returns a handle for the given core. The queue's transfers run
// between the caches of the cores its ends name.
func (q *CoherentQueue) End(core int) *End {
	e := &End{q: q, core: core, idx: uint64(len(q.ends))}
	e.step = e.run
	e.cell.Init(q.k, e.step)
	q.ends = append(q.ends, e)
	return e
}

// PushThen enqueues msg, spinning (with re-acquired lines, as a real
// spin would) while the queue is full, then runs then.
func (e *End) PushThen(msg mem.Message, then sim.Cont) {
	e.claim(&e.q.pusher, "push")
	e.msg, e.then = msg, then
	// Read the consumer-owned head to check fullness: acquiring shared
	// suffices, but the subsequent write to tail upgrades.
	e.acquire(&e.q.headOwner, pushHead)
}

// PopThen dequeues a message, spinning while the queue is empty, then
// runs then; Result holds the message.
func (e *End) PopThen(then sim.Cont) {
	e.claim(&e.q.popper, "pop")
	e.then = then
	e.acquire(&e.q.tailOwner, popTail)
}

// Result reports the message the last PopThen dequeued.
func (e *End) Result() mem.Message { return e.msg }

// claim makes e the queue's one End for op, or panics if another End
// already is.
func (e *End) claim(side **End, op string) {
	if *side == nil {
		*side = e
	}
	if *side != e {
		panic("swqueue: a second End would " + op + " on a single-producer single-consumer CoherentQueue")
	}
}

// acquire models the end's core upgrading a line to exclusive/modified,
// then runs step next: if another cache owns the line, a snoop +
// invalidation + data response crosses the network first.
func (e *End) acquire(owner *int, next uint64) {
	q := e.q
	if *owner == e.core {
		q.k.AfterFunc(config.L1HitCycles, e.step, next)
		return
	}
	q.stats.Transfers++
	if *owner != -1 {
		q.stats.Invalidates++
	}
	// Snoop request out, data response back (cache-to-cache), each a
	// control or data packet on the coherence network.
	e.owner, e.next = owner, next
	q.bus.SendFunc(noc.PktCoherence, q.snoopFn, e.idx)
}

// acquireData upgrades the data line of the operation's slot, then
// runs step next, which records the new owner.
func (e *End) acquireData(next uint64) {
	cur, ok := e.q.dataOwner[e.slot]
	if !ok {
		cur = -1
	}
	e.cur = cur
	e.acquire(&e.cur, next)
}

// snooped runs when the snoop reaches the owning cache: the data
// response starts back.
func (q *CoherentQueue) snooped(arg uint64) { q.bus.SendFunc(noc.PktCoherence, q.dataFn, arg) }

// arrived runs when the data response lands: the acquiring end resumes
// at this tick, with the same zero-delay event a signal wake schedules.
func (q *CoherentQueue) arrived(arg uint64) { q.k.AfterFunc(0, q.ends[arg].step, endHop) }

func (e *End) run(state uint64) {
	q := e.q
	switch state {
	case endHop:
		q.k.AfterFunc(config.L2HitCycles, e.step, endOwned)
	case endOwned:
		*e.owner = e.core
		e.run(e.next)
	case pushRoom:
		if q.tail-q.head < uint64(q.depth) {
			e.acquire(&q.headOwner, pushHead)
			return
		}
		q.onChange.WaitCell(&e.cell, pushRoom)
	case pushHead:
		if q.tail-q.head >= uint64(q.depth) {
			q.onChange.WaitCell(&e.cell, pushRoom)
			return
		}
		e.slot = q.tail % uint64(q.depth)
		e.acquireData(pushData)
	case pushData:
		q.dataOwner[e.slot] = e.core
		q.buf[e.slot] = e.msg
		e.acquire(&q.tailOwner, pushTail)
	case pushTail:
		q.tail++
		q.stats.Messages++
		q.onChange.Fire()
		e.then.Call()
	case popAny:
		if q.tail > q.head {
			e.acquire(&q.tailOwner, popTail)
			return
		}
		q.onChange.WaitCell(&e.cell, popAny)
	case popTail:
		if q.tail <= q.head {
			q.onChange.WaitCell(&e.cell, popAny)
			return
		}
		e.slot = q.head % uint64(q.depth)
		e.acquireData(popData)
	case popData:
		q.dataOwner[e.slot] = e.core
		e.msg = q.buf[e.slot]
		e.acquire(&q.headOwner, popHead)
	case popHead:
		q.head++
		q.onChange.Fire()
		e.then.Call()
	}
}
