package sim

import "math/bits"

// This file implements the kernel's event queue: a two-level monomorphic
// priority queue on (tick, seq) that is allocation-free in steady state.
//
// The near future — delays 0..wheelSize-1, which is where the per-cycle
// device ticks, bus deliveries, and retry backoffs of this repository
// land — lives in a calendar wheel of wheelSize buckets indexed by
// tick & wheelMask. Everything at or beyond now+wheelSize lives in a
// hand-rolled binary min-heap ("far" heap). Both levels store their
// records by value in reusable backing arrays, so scheduling never boxes
// through an interface and never heap-allocates once the arrays have
// grown to the workload's high-water mark (container/heap's any-typed
// Push allocated on every call). A wheel slot is 24 bytes, {fn, arg,
// seq}: its bucket implies its tick. The far heap keeps the 32-byte
// event, tick included, and migration drops the tick.
//
// Two structural choices keep the wheel cheap at scale:
//
//   - occ is a 64-bit occupancy bitmap, bit i set exactly when bucket i
//     holds undispatched events. Finding the earliest pending tick is a
//     rotate + trailing-zeros instead of a worst-case 64-bucket scan.
//   - Fresh buckets draw their initial backing array from a slab carved
//     in bucketChunk-slot pieces, so a newly built kernel costs a
//     couple of slab allocations instead of one append-growth chain per
//     touched bucket.
//
// Ordering contract (identical to the seed container/heap queue): events
// dispatch in strictly nondecreasing tick order, same-tick events in
// scheduling (seq) order. The invariant that makes the wheel safe is:
//
//	the wheel holds exactly the pending events with tick < now+wheelSize;
//	the far heap holds the rest.
//
// now only moves forward, and a tick T enters the window [now, now+wheelSize)
// exactly once. advanceTo migrates far-heap events into the wheel at that
// moment — in (tick, seq) heap order, before any event callback at the new
// now can run — so every bucket append happens in increasing seq order and
// a bucket drains FIFO by construction. Within the window, 64 consecutive
// ticks map to 64 distinct buckets, so a bucket never mixes ticks.

const (
	wheelBits = 6
	// wheelSize is the calendar window in ticks. 64 covers every
	// short-delay scheduling pattern on the hot path (AfterFunc(0..63):
	// mapper ticks, send-issue spacing, bus serialization+hop, retry
	// backoffs) and matches the occupancy bitmap word exactly.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1

	// bucketChunk is the initial capacity handed to a freshly touched
	// bucket; buckets that outgrow it fall back to append doubling and
	// keep the larger array across window wraps. slabBuckets batches the
	// slab allocation so an idle kernel pays nothing and a busy one pays
	// ~one allocation total: sized to the whole wheel, a kernel that
	// eventually touches every bucket (any long-running model does) takes
	// a single 24 KB slab (64 buckets x 16 slots x 24 B) instead of a
	// per-bucket growth chain. The chunk is sized for short runs, which
	// pay for the slab once per run: a bucket that outgrows 16 slots
	// grows once and keeps its array, so a long run stays allocation-free
	// after warm-up.
	bucketChunk = 16
	slabBuckets = wheelSize

	// farInitCap presizes the far heap's backing array on first use,
	// collapsing the append-growth chain for long-horizon schedules
	// (timeouts, arrival processes) into one allocation.
	farInitCap = 64
)

// event is one far-heap record: fn(arg) at (tick, seq).
type event struct {
	tick uint64
	seq  uint64
	fn   func(uint64)
	arg  uint64
}

// slot is one wheel record: fn(arg) at its bucket's tick, ordered by seq.
type slot struct {
	fn  func(uint64)
	arg uint64
	seq uint64
}

// bucket is one wheel position: a FIFO of same-tick slots. head indexes
// the next slot to dispatch; the backing array is reused across windows.
type bucket struct {
	head int
	ev   []slot
}

// eventQueue is the two-level queue. now mirrors the kernel's clock and
// anchors the wheel window.
type eventQueue struct {
	now   uint64
	occ   uint64 // bit i set iff wheel[i] has undispatched slots
	wheel [wheelSize]bucket
	far   []event // binary min-heap on (tick, seq); ticks >= now+wheelSize
	slab  []slot  // backing store carved into fresh bucket arrays
}

// len reports the number of pending events. Only tests ask, so it sums
// the buckets instead of the dispatch loop keeping a count.
func (q *eventQueue) len() int {
	n := len(q.far)
	for i := range q.wheel {
		n += len(q.wheel[i].ev) - q.wheel[i].head
	}
	return n
}

// put appends s to the bucket of tick t, which must lie in the window.
// Kernel.AtFunc writes the same steps out in line. The bucket is full
// only when it first gets an array or outgrows it.
func (q *eventQueue) put(t uint64, s slot) {
	b := &q.wheel[t&wheelMask]
	n := len(b.ev)
	if n == cap(b.ev) {
		q.grow(b)
	}
	b.ev = b.ev[:n+1]
	b.ev[n] = s
	q.occ |= 1 << (t & wheelMask)
}

// grow gives a full bucket room for one more slot: a fresh
// bucketChunk-capacity array carved out of the slab (replenished when
// exhausted) on first use, append doubling after that. The three-index
// slice expression caps the chunk so growth beyond bucketChunk
// reallocates instead of clobbering the neighbouring chunk. It is kept
// out of line so the schedule path stays short.
//
//go:noinline
func (q *eventQueue) grow(b *bucket) {
	if cap(b.ev) != 0 {
		b.ev = append(b.ev, slot{})[:len(b.ev)]
		return
	}
	n := len(q.slab)
	if cap(q.slab)-n < bucketChunk {
		q.slab = make([]slot, 0, bucketChunk*slabBuckets)
		n = 0
	}
	q.slab = q.slab[:n+bucketChunk]
	b.ev = q.slab[n : n : n+bucketChunk]
}

// advanceTo moves the window start to t (monotone) and migrates far-heap
// events that fall into the new window. Migration pops in (tick, seq)
// order, so bucket appends stay seq-sorted: every event already in a
// bucket for an in-window tick was appended when that tick entered the
// window, and every future direct push carries a larger seq.
func (q *eventQueue) advanceTo(t uint64) {
	q.now = t
	for len(q.far) > 0 && q.far[0].tick-t < wheelSize {
		e := q.farPop()
		q.put(e.tick, slot{fn: e.fn, arg: e.arg, seq: e.seq})
	}
}

// wheelNext returns the offset in [0, wheelSize) of the earliest occupied
// bucket relative to now. Rotating the occupancy word by now&wheelMask
// aligns bit d with bucket (now+d)&wheelMask, so a trailing-zeros count
// replaces the bucket scan. Callers must ensure occ != 0.
func (q *eventQueue) wheelNext() uint64 {
	return uint64(bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(q.now&wheelMask))))
}

// startTick advances the window to the earliest pending tick and returns
// that tick's bucket, or nil when the queue is empty or the earliest tick
// is past limit (pass ^uint64(0) for unbounded). The kernel drains the
// returned bucket in place — batched per-tick dispatch — instead of
// re-scanning the wheel per event; callbacks that schedule for the same
// tick append to the same bucket and are picked up by the drain loop.
func (q *eventQueue) startTick(limit uint64) *bucket {
	if q.occ == 0 {
		if len(q.far) == 0 || q.far[0].tick > limit {
			return nil
		}
		// Jump the window to the far-heap minimum; migration refills
		// the wheel with at least that event.
		q.advanceTo(q.far[0].tick)
	}
	d := q.wheelNext()
	if q.now+d > limit {
		return nil
	}
	if d != 0 {
		// The window slides forward before any event runs, so
		// callbacks at the new now see a fully migrated wheel.
		q.advanceTo(q.now + d)
	}
	return &q.wheel[q.now&wheelMask]
}

// init empties the queue at tick zero and keeps its arrays.
func (q *eventQueue) init() {
	q.now, q.occ = 0, 0
	for i := range q.wheel {
		q.wheel[i] = bucket{ev: q.wheel[i].ev[:0]}
	}
	q.far = q.far[:0]
}

// release clears every slot the queue's arrays hold, to their capacity:
// dispatched wheel slots keep their func values, and a bucket that
// outgrew its slab chunk left stale slots in the slab. The arrays stay
// for the next init.
func (q *eventQueue) release() {
	for i := range q.wheel {
		clear(q.wheel[i].ev[:cap(q.wheel[i].ev)])
	}
	clear(q.slab[:cap(q.slab)])
	clear(q.far[:cap(q.far)])
}

// reset drops every pending event and releases the backing arrays.
func (q *eventQueue) reset() {
	for i := range q.wheel {
		q.wheel[i] = bucket{}
	}
	q.occ = 0
	q.far = nil
	q.slab = nil
}

// farPush / farPop implement a monomorphic binary min-heap on
// (tick, seq) over the far slice — the same ordering container/heap gave
// the seed kernel, minus the interface boxing.

func (q *eventQueue) farPush(e event) {
	if cap(q.far) == 0 {
		q.far = make([]event, 0, farInitCap)
	}
	h := append(q.far, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.far = h
}

func (q *eventQueue) farPop() event {
	h := q.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release closure references for GC
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(&h[l], &h[small]) {
			small = l
		}
		if r < n && eventLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	q.far = h
	return top
}

func eventLess(a, b *event) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.seq < b.seq
}
