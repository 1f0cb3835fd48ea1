// Package sim provides a deterministic discrete-event simulation kernel
// and its one kind of simulated thread, the Task: a state machine whose
// steps are events and the continuations (Cont) of kernel-side
// operations, all run on the goroutine that calls Run.
//
// Time is measured in ticks; by convention one tick is one CPU cycle of the
// simulated 2 GHz machine (see internal/config). Events scheduled for the
// same tick fire in scheduling order (FIFO), which makes runs bit-for-bit
// reproducible: the kernel runs one event at a time, and the event queue
// breaks tick ties with a monotonically increasing sequence number. See
// docs/SIMULATOR.md for the full determinism contract.
//
// The queue is a monomorphic calendar wheel (near future) backed by a
// binary heap (far future). There is one scheduling form: AtFunc and
// AfterFunc take a func(uint64), bound once by the caller, plus its
// argument, and the queue stores the pair by value, so steady-state hot
// paths schedule with zero allocations.
package sim

import (
	"fmt"
	"sync"

	"spamer/internal/blocks"
)

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; construct with New.
type Kernel struct {
	now    uint64
	seq    uint64
	events eventQueue
	live   int // tasks spawned and not yet exited

	// Block storage behind the *Task pointers GoFunc hands out: one
	// allocation per 16 threads, and none on a recycled kernel, which
	// keeps its blocks.
	tasks    blocks.Arena[Task]
	stopped  bool
	maxTick  uint64 // watchdog: Run panics past this tick (0 = unlimited)
	executed uint64 // total events dispatched, for diagnostics

	// obs, when set, observes every dispatched event's (tick, seq) pair
	// before its callback runs. Golden-trace tests use it to prove two
	// kernels dispatch bit-identically.
	obs func(tick, seq uint64)
}

// SetDispatchObserver installs fn to be called with the (tick, seq) pair
// of every event immediately before it is dispatched, in dispatch order.
// The observer must not schedule events. Pass nil to remove. Intended for
// determinism tests; the nil check costs one branch per event.
func (k *Kernel) SetDispatchObserver(fn func(tick, seq uint64)) { k.obs = fn }

// kernels holds released kernels for New to reuse (see Release).
var kernels sync.Pool

// New returns an empty kernel at tick zero. It reuses the storage of a
// released kernel when the pool holds one.
func New() *Kernel {
	k, _ := kernels.Get().(*Kernel)
	if k == nil {
		k = new(Kernel)
	}
	k.init()
	return k
}

// init puts k at tick zero with no events, threads or observer. It
// keeps the storage a released kernel brings, the wheel and far-heap
// arrays and the task blocks (which Release emptied), so a fresh and a
// recycled kernel start from the same state.
func (k *Kernel) init() {
	*k = Kernel{events: k.events, tasks: k.tasks}
	k.events.init()
}

// Release hands k's storage to a later New. Call it only once Run has
// returned and nothing will touch k, or a Task it spawned, again: the
// next kernel may already own the storage. It first drops every
// reference the storage holds (the func values dispatched slots keep,
// the task names, the observer), so a pooled kernel keeps no earlier
// simulation alive.
func (k *Kernel) Release() {
	k.events.release()
	k.tasks.Reset()
	k.obs = nil
	kernels.Put(k)
}

// Now reports the current simulated tick.
func (k *Kernel) Now() uint64 { return k.now }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetDeadline arms a watchdog: if simulated time passes t while events are
// still pending, Run panics. Use it in tests to convert deadlock or
// livelock into a loud failure instead of an endless loop.
func (k *Kernel) SetDeadline(t uint64) { k.maxTick = t }

// AtFunc schedules fn(arg) to run at absolute tick t. fn is typically a
// func value bound once at construction time (a stored method value),
// and arg carries the per-event state (an entry index, a packed flag),
// so the hot path schedules without creating a closure. The event takes
// the next sequence number here, at scheduling time, which breaks ties
// between events of the same tick. Scheduling in the past is a
// programming error and panics.
//
// A tick inside the wheel window is the straight-line case: the body of
// eventQueue.put, written out because a function that may call grow is
// too costly for the compiler to inline. A single comparison sends both
// a past tick (t-now wraps around) and a far one to atFar.
func (k *Kernel) AtFunc(t uint64, fn func(uint64), arg uint64) {
	q := &k.events
	if t-q.now >= wheelSize {
		k.atFar(t, fn, arg)
		return
	}
	k.seq++
	b := &q.wheel[t&wheelMask]
	n := len(b.ev)
	if n == cap(b.ev) {
		q.grow(b)
	}
	b.ev = b.ev[:n+1]
	b.ev[n] = slot{fn: fn, arg: arg, seq: k.seq}
	q.occ |= 1 << (t & wheelMask)
}

// atFar is AtFunc's out-of-line path: it panics on a tick in the past
// and pushes any other onto the far heap.
func (k *Kernel) atFar(t uint64, fn func(uint64), arg uint64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at tick %d before now %d", t, k.now))
	}
	k.seq++
	k.events.farPush(event{tick: t, seq: k.seq, fn: fn, arg: arg})
}

// AfterFunc schedules fn(arg) to run d ticks from now (see AtFunc).
func (k *Kernel) AfterFunc(d uint64, fn func(uint64), arg uint64) {
	k.AtFunc(k.now+d, fn, arg)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; a subsequent Run continues from where it left off.
func (k *Kernel) Stop() { k.stopped = true }

// dispatchTick drains one tick's bucket — positioned by startTick — in
// seq (FIFO) order, including events the callbacks append for the same
// tick. Batching the monotone-time and watchdog checks per tick instead
// of per event is what keeps million-event open-loop runs cheap; the
// dispatch order is identical to the per-event loop because a bucket
// holds exactly one tick's events in seq order. A dispatched slot is read
// in place and not cleared: its func value is bound once per system and
// lives as long as the kernel, so the stale copy keeps nothing alive; the
// next schedule into the bucket overwrites it, Drain drops the arrays,
// and Release clears them before a later kernel reuses them.
func (k *Kernel) dispatchTick(b *bucket) {
	t := k.events.now
	if t < k.now {
		panic("sim: event queue went backwards")
	}
	k.now = t
	if k.maxTick != 0 && t > k.maxTick {
		panic(fmt.Sprintf("sim: watchdog deadline %d exceeded at tick %d (%d live threads)",
			k.maxTick, t, k.live))
	}
	for b.head < len(b.ev) && !k.stopped {
		s := &b.ev[b.head]
		b.head++
		k.executed++
		if k.obs != nil {
			k.obs(t, s.seq)
		}
		s.fn(s.arg)
	}
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		k.events.occ &^= 1 << (t & wheelMask)
	}
}

// Run dispatches events in (tick, seq) order until the event queue drains,
// Stop is called, or the watchdog deadline passes. A panic out of an
// event or a thread's step (the watchdog's included) drains the kernel
// on its way to the caller, so a failed run leaves no live thread.
func (k *Kernel) Run() {
	defer k.drainOnPanic()
	k.stopped = false
	for !k.stopped {
		b := k.events.startTick(^uint64(0))
		if b == nil {
			break
		}
		k.dispatchTick(b)
	}
}

// RunUntil dispatches events with tick <= t, then sets now = t. A Stop
// ends it early and leaves the clock at the stopping event's tick: time
// moves to t only once no event at or before t remains, so a later Run
// still dispatches the rest in (tick, seq) order. It enforces the same
// watchdog and monotone-time guards as Run, so a livelock below t panics
// rather than spinning, and drains on a panic exactly as Run does.
func (k *Kernel) RunUntil(t uint64) {
	defer k.drainOnPanic()
	k.stopped = false
	for !k.stopped {
		b := k.events.startTick(t)
		if b == nil {
			if k.now < t {
				k.now = t
				k.events.advanceTo(t)
			}
			return
		}
		k.dispatchTick(b)
	}
}

// drainOnPanic, deferred by the run loops, drains the kernel when a
// panic unwinds through them and then re-raises it unchanged.
func (k *Kernel) drainOnPanic() {
	if r := recover(); r != nil {
		k.Drain()
		panic(r)
	}
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.events.len() }

// LiveProcs reports the number of threads (GoFunc) that have not
// exited.
func (k *Kernel) LiveProcs() int { return k.live }

// Drain exits every thread still live and drops all pending events, so
// no further step runs. Run and RunUntil call it when a panic unwinds
// through them; call it directly when abandoning a simulation early
// (e.g. after RunUntil in tests). A fully Run simulation needs no
// draining.
func (k *Kernel) Drain() {
	for i := 0; i < k.tasks.Len(); i++ {
		k.tasks.At(i).Exit()
	}
	k.events.reset()
}
