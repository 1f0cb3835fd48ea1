package sim

import "math/bits"

// This file implements the kernel's event queue: a two-level monomorphic
// priority queue on (tick, seq) that is allocation-free in steady state.
//
// The near future — delays 0..wheelSize-1, which is where the per-cycle
// device ticks, bus deliveries, and retry backoffs of this repository
// land — lives in a calendar wheel of wheelSize buckets indexed by
// tick & wheelMask. Everything at or beyond now+wheelSize lives in a
// hand-rolled binary min-heap ("far" heap). Both levels store event
// structs by value in reusable backing arrays, so scheduling never boxes
// through an interface and never heap-allocates once the arrays have
// grown to the workload's high-water mark (container/heap's any-typed
// Push allocated on every call).
//
// Two structural choices keep the wheel cheap at scale:
//
//   - occ is a 64-bit occupancy bitmap, bit i set exactly when bucket i
//     holds undispatched events. Finding the earliest pending tick is a
//     rotate + trailing-zeros instead of a worst-case 64-bucket scan.
//   - Fresh buckets draw their initial backing array from a slab carved
//     in bucketChunk-event pieces, so a newly built kernel costs a
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
	// short-delay scheduling pattern on the hot path (After(0..63):
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
	// a single ~100KB slab instead of a per-bucket growth chain.
	bucketChunk = 32
	slabBuckets = wheelSize

	// farInitCap presizes the far heap's backing array on first use,
	// collapsing the append-growth chain for long-horizon schedules
	// (timeouts, arrival processes) into one allocation.
	farInitCap = 64
)

// event is one scheduled callback. Exactly one of fn and afn is set:
// fn is the closure form (At/After), afn+arg the allocation-free form
// (AtFunc/AfterFunc).
type event struct {
	tick uint64
	seq  uint64
	fn   func()
	afn  func(uint64)
	arg  uint64
}

// call dispatches the event's callback.
func (e *event) call() {
	if e.afn != nil {
		e.afn(e.arg)
	} else {
		e.fn()
	}
}

// bucket is one wheel slot: a FIFO of same-tick events. head indexes the
// next event to dispatch; the backing array is reused across windows.
type bucket struct {
	head int
	ev   []event
}

// eventQueue is the two-level queue. now mirrors the kernel's clock and
// anchors the wheel window.
type eventQueue struct {
	now      uint64
	occ      uint64 // bit i set iff wheel[i] has undispatched events
	wheelLen int    // events currently in the wheel
	wheel    [wheelSize]bucket
	far      []event // binary min-heap on (tick, seq); ticks >= now+wheelSize
	slab     []event // backing store carved into fresh bucket arrays
}

// len reports the number of pending events.
func (q *eventQueue) len() int { return q.wheelLen + len(q.far) }

// grab carves a fresh bucketChunk-capacity array out of the slab,
// replenishing the slab when exhausted. The three-index slice expression
// caps the chunk so append growth beyond bucketChunk reallocates instead
// of clobbering the neighbouring chunk.
func (q *eventQueue) grab() []event {
	n := len(q.slab)
	if cap(q.slab)-n < bucketChunk {
		q.slab = make([]event, 0, bucketChunk*slabBuckets)
		n = 0
	}
	q.slab = q.slab[:n+bucketChunk]
	return q.slab[n : n : n+bucketChunk]
}

// push inserts an event. e.tick must be >= q.now (the kernel checks).
func (q *eventQueue) push(e event) {
	if e.tick-q.now < wheelSize {
		b := &q.wheel[e.tick&wheelMask]
		if cap(b.ev) == 0 {
			b.ev = q.grab()
		}
		b.ev = append(b.ev, e)
		q.occ |= 1 << (e.tick & wheelMask)
		q.wheelLen++
		return
	}
	q.farPush(e)
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
		b := &q.wheel[e.tick&wheelMask]
		if cap(b.ev) == 0 {
			b.ev = q.grab()
		}
		b.ev = append(b.ev, e)
		q.occ |= 1 << (e.tick & wheelMask)
		q.wheelLen++
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

// pop removes and returns the earliest event, advancing the window to its
// tick. The second return is false when the queue is empty.
func (q *eventQueue) pop() (event, bool) {
	if q.occ == 0 {
		if len(q.far) == 0 {
			return event{}, false
		}
		// Jump the window to the far-heap minimum; migration refills
		// the wheel with at least that event.
		q.advanceTo(q.far[0].tick)
	}
	d := q.wheelNext()
	if d != 0 {
		// The window slides forward before the event runs, so
		// callbacks at the new now see a fully migrated wheel.
		q.advanceTo(q.now + d)
	}
	b := &q.wheel[q.now&wheelMask]
	e := b.ev[b.head]
	b.ev[b.head] = event{} // release closure references for GC
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		q.occ &^= 1 << (q.now & wheelMask)
	}
	q.wheelLen--
	return e, true
}

// reset drops every pending event and releases the backing arrays.
func (q *eventQueue) reset() {
	for i := range q.wheel {
		q.wheel[i] = bucket{}
	}
	q.occ = 0
	q.wheelLen = 0
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
