package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// refEvent / refHeap replicate the seed kernel's container/heap event
// queue verbatim (minus the callback): the reference semantics the
// calendar queue must match pop-for-pop.
type refEvent struct {
	tick uint64
	seq  uint64
	id   int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// push schedules (tick, seq) the way Kernel.AtFunc does: a tick inside
// the window goes into its bucket as a slot, any later one onto the far
// heap.
func push(q *eventQueue, tick, seq uint64) {
	if tick-q.now < wheelSize {
		q.put(tick, slot{seq: seq})
		return
	}
	q.farPush(event{tick: tick, seq: seq})
}

// pop removes and returns the earliest event the way the kernel's run
// loop does — startTick positions the bucket, which then drains FIFO —
// one event at a time. The slot's tick is the window's now. The second
// return is false when q is empty.
func pop(q *eventQueue) (event, bool) {
	b := q.startTick(^uint64(0))
	if b == nil {
		return event{}, false
	}
	s := b.ev[b.head]
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		q.occ &^= 1 << (q.now & wheelMask)
	}
	return event{tick: q.now, seq: s.seq, fn: s.fn, arg: s.arg}, true
}

// TestEventSize pins the far-heap record at two uint64s, one func value
// and one uint64 — 32 bytes on 64-bit platforms — so a second callback
// slot cannot creep back into the queue.
func TestEventSize(t *testing.T) {
	var f func(uint64)
	want := 3*unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(f)
	if got := unsafe.Sizeof(event{}); got != want {
		t.Fatalf("sizeof(event) = %d, want %d", got, want)
	}
}

// TestSlotSize pins the wheel record at one func value and two uint64s —
// 24 bytes on 64-bit platforms: the bucket implies the tick, so the
// tick cannot creep back into the wheel's working set.
func TestSlotSize(t *testing.T) {
	var f func(uint64)
	want := 2*unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(f)
	if got := unsafe.Sizeof(slot{}); got != want {
		t.Fatalf("sizeof(slot) = %d, want %d", got, want)
	}
}

// TestQueueMatchesSeedHeap drives the calendar queue and the seed
// reference heap through identical random schedules — delays spanning
// the same tick, the wheel window, and the calendar/heap handoff at 64
// ticks — and asserts they pop the exact same (tick, seq) sequence. Pops
// and pushes interleave so migration happens at every window position.
func TestQueueMatchesSeedHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refHeap
		seq := uint64(0)
		now := uint64(0)
		pending := 0
		const ops = 5000
		for op := 0; op < ops; op++ {
			// Bias toward pushes early, drains late, so the queue both
			// grows deep and empties completely mid-run.
			pushBias := 60
			if op > ops*3/4 {
				pushBias = 30
			}
			if pending > 0 && rng.Intn(100) >= pushBias {
				e, ok := pop(&q)
				if !ok {
					t.Fatalf("seed %d: pop failed with %d pending", seed, pending)
				}
				r := heap.Pop(&ref).(refEvent)
				if e.tick != r.tick || e.seq != r.seq {
					t.Fatalf("seed %d op %d: queue popped (%d,%d), reference (%d,%d)",
						seed, op, e.tick, e.seq, r.tick, r.seq)
				}
				if e.tick < now {
					t.Fatalf("seed %d: time went backwards: %d < %d", seed, e.tick, now)
				}
				now = e.tick
				pending--
				continue
			}
			// Delay distribution: heavy on 0..8 (device ticks), a band
			// around the 64-tick wheel boundary, and a far tail.
			var d uint64
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				d = uint64(rng.Intn(9))
			case 5, 6:
				d = uint64(56 + rng.Intn(16)) // straddles wheelSize
			case 7, 8:
				d = uint64(rng.Intn(130))
			default:
				d = uint64(rng.Intn(5000))
			}
			seq++
			tick := now + d
			push(&q, tick, seq)
			heap.Push(&ref, refEvent{tick: tick, seq: seq})
			pending++
		}
		// Drain what's left.
		for pending > 0 {
			e, ok := pop(&q)
			if !ok {
				t.Fatalf("seed %d: drain pop failed with %d pending", seed, pending)
			}
			r := heap.Pop(&ref).(refEvent)
			if e.tick != r.tick || e.seq != r.seq {
				t.Fatalf("seed %d drain: queue popped (%d,%d), reference (%d,%d)",
					seed, e.tick, e.seq, r.tick, r.seq)
			}
			now = e.tick
			pending--
		}
		if q.len() != 0 || len(ref) != 0 {
			t.Fatalf("seed %d: leftovers: queue %d, reference %d", seed, q.len(), len(ref))
		}
	}
}

// TestKernelAtOrderingProperty guards the (tick, seq) contract through
// the public API under random interleavings: events scheduled from
// inside callbacks (the real scheduling pattern) at random deltas,
// including same-tick FIFO chains and cross-boundary deltas, must fire
// in nondecreasing tick order with same-tick FIFO. Runs under -race via
// make test-race.
func TestKernelAtOrderingProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		k := New()
		type fired struct {
			tick uint64
			id   int
		}
		var log []fired
		id := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			if depth > 3 {
				return
			}
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				var d uint64
				switch rng.Intn(6) {
				case 0, 1:
					d = 0 // same-tick FIFO
				case 2, 3:
					d = uint64(rng.Intn(8))
				case 4:
					d = uint64(60 + rng.Intn(10)) // wheel boundary
				default:
					d = uint64(rng.Intn(1000))
				}
				myID := id
				id++
				tick := k.Now() + d
				k.AtFunc(tick, func(uint64) {
					log = append(log, fired{tick: tick, id: myID})
					schedule(depth + 1)
				}, 0)
			}
		}
		k.AtFunc(0, func(uint64) { schedule(0) }, 0)
		k.Run()
		if len(log) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
		for i := 1; i < len(log); i++ {
			if log[i].tick < log[i-1].tick {
				t.Fatalf("seed %d: tick order violated at %d: %d after %d",
					seed, i, log[i].tick, log[i-1].tick)
			}
		}
		// Same-tick events must fire in scheduling order. id is assigned
		// in scheduling order globally, but only same-tick comparisons
		// are constrained (an event scheduled later may fire earlier at
		// an earlier tick).
		byTick := map[uint64]int{}
		for i, f := range log {
			if prev, ok := byTick[f.tick]; ok && f.id < prev {
				t.Fatalf("seed %d: same-tick FIFO violated at %d (tick %d): id %d after %d",
					seed, i, f.tick, f.id, prev)
			}
			byTick[f.tick] = f.id
		}
	}
}

// TestRunUntilWindowJump exercises the RunUntil fast-forward: advancing
// now far past pending far-heap events' entry into the wheel window must
// not lose or reorder them.
func TestRunUntilWindowJump(t *testing.T) {
	k := New()
	var got []uint64
	rec := func(tick uint64) func(uint64) {
		return func(uint64) { got = append(got, tick) }
	}
	k.AtFunc(10, rec(10), 0)
	k.AtFunc(500, rec(500), 0)
	k.AtFunc(530, rec(530), 0)
	k.AtFunc(2000, rec(2000), 0)
	k.RunUntil(480) // jump the window into the gap before 500
	if k.Now() != 480 {
		t.Fatalf("Now() = %d, want 480", k.Now())
	}
	k.AtFunc(490, rec(490), 0) // schedule inside the jumped-to window
	k.RunUntil(1000)
	k.Run()
	want := []uint64{10, 490, 500, 530, 2000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
