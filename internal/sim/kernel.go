// Package sim provides a deterministic discrete-event simulation kernel
// with cooperative coroutine processes.
//
// Time is measured in ticks; by convention one tick is one CPU cycle of the
// simulated 2 GHz machine (see internal/config). Events scheduled for the
// same tick fire in scheduling order (FIFO), which makes runs bit-for-bit
// reproducible: the kernel never runs two processes concurrently, and the
// event queue breaks tick ties with a monotonically increasing sequence
// number. See docs/SIMULATOR.md for the full determinism contract.
//
// The queue is a monomorphic calendar wheel (near future) backed by a
// binary heap (far future); scheduling with At/After stores one closure
// by value, and the AtFunc/AfterFunc forms take a func(uint64) plus
// argument so steady-state hot paths schedule with zero allocations.
package sim

import "fmt"

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; construct with New.
type Kernel struct {
	now    uint64
	seq    uint64
	events eventQueue
	procs  []*Proc
	live   int // procs spawned and not yet finished

	// Proc spawning support: block storage behind the *Proc pointers and
	// the shared start/dispatch trampoline Go binds on first use (proc.go).
	// The first arena block and index array are embedded, so a kernel
	// spawning a handful of processes allocates nothing for them;
	// &procArena0[i] is handed out, which is safe because kernels never
	// move (New returns a heap object).
	procArena  []Proc
	procFn     func(uint64)
	procArena0 [procArenaBlock]Proc
	procs0     [procArenaBlock]*Proc
	stopped    bool
	maxTick    uint64 // watchdog: Run panics past this tick (0 = unlimited)
	executed   uint64 // total events dispatched, for diagnostics

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

// New returns an empty kernel at tick zero.
func New() *Kernel {
	return &Kernel{}
}

// Now reports the current simulated tick.
func (k *Kernel) Now() uint64 { return k.now }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetDeadline arms a watchdog: if simulated time passes t while events are
// still pending, Run panics. Use it in tests to convert deadlock or
// livelock into a loud failure instead of an endless loop.
func (k *Kernel) SetDeadline(t uint64) { k.maxTick = t }

// At schedules fn to run at absolute tick t. Scheduling in the past is a
// programming error and panics.
func (k *Kernel) At(t uint64, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at tick %d before now %d", t, k.now))
	}
	k.seq++
	k.events.push(event{tick: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d ticks from now.
func (k *Kernel) After(d uint64, fn func()) { k.At(k.now+d, fn) }

// AtFunc schedules fn(arg) to run at absolute tick t. It is the
// allocation-free form of At: fn is typically a func value bound once at
// construction time (a stored method value), and arg carries the per-event
// state (an entry index, a packed flag), so the hot path schedules without
// creating a closure. Ordering is identical to At — the two forms share
// one sequence counter and one queue.
func (k *Kernel) AtFunc(t uint64, fn func(uint64), arg uint64) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at tick %d before now %d", t, k.now))
	}
	k.seq++
	k.events.push(event{tick: t, seq: k.seq, afn: fn, arg: arg})
}

// AfterFunc schedules fn(arg) to run d ticks from now (see AtFunc).
func (k *Kernel) AfterFunc(d uint64, fn func(uint64), arg uint64) {
	k.AtFunc(k.now+d, fn, arg)
}

// Stop makes Run return after the current event completes. Pending events
// remain queued; a subsequent Run continues from where it left off.
func (k *Kernel) Stop() { k.stopped = true }

// dispatchNext pops the earliest event and runs it, enforcing the
// invariants every run loop shares: simulated time never moves
// backwards, and the watchdog deadline converts livelock into a loud
// panic instead of an endless spin. The run loops batch per tick via
// dispatchTick instead; this form remains for single-step tests.
func (k *Kernel) dispatchNext() {
	e, ok := k.events.pop()
	if !ok {
		panic("sim: dispatchNext on empty queue")
	}
	if e.tick < k.now {
		panic("sim: event queue went backwards")
	}
	k.now = e.tick
	if k.maxTick != 0 && k.now > k.maxTick {
		panic(fmt.Sprintf("sim: watchdog deadline %d exceeded at tick %d (%d live procs)",
			k.maxTick, k.now, k.live))
	}
	k.executed++
	if k.obs != nil {
		k.obs(e.tick, e.seq)
	}
	e.call()
}

// dispatchTick drains one tick's bucket — positioned by startTick — in
// seq (FIFO) order, including events the callbacks append for the same
// tick. Batching the monotone-time and watchdog checks per tick instead
// of per event is what keeps million-event open-loop runs cheap; the
// dispatch order is identical to the per-event loop because a bucket
// holds exactly one tick's events in seq order.
func (k *Kernel) dispatchTick(b *bucket) {
	t := k.events.now
	if t < k.now {
		panic("sim: event queue went backwards")
	}
	k.now = t
	if k.maxTick != 0 && t > k.maxTick {
		panic(fmt.Sprintf("sim: watchdog deadline %d exceeded at tick %d (%d live procs)",
			k.maxTick, t, k.live))
	}
	for b.head < len(b.ev) && !k.stopped {
		e := b.ev[b.head]
		b.ev[b.head] = event{} // release closure references for GC
		b.head++
		k.events.wheelLen--
		k.executed++
		if k.obs != nil {
			k.obs(e.tick, e.seq)
		}
		e.call()
	}
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		k.events.occ &^= 1 << (t & wheelMask)
	}
}

// Run dispatches events in (tick, seq) order until the event queue drains,
// Stop is called, or the watchdog deadline passes.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped {
		b := k.events.startTick(^uint64(0))
		if b == nil {
			break
		}
		k.dispatchTick(b)
	}
}

// RunUntil dispatches events with tick <= t, then sets now = t. It
// enforces the same watchdog and monotone-time guards as Run, so a
// livelock below t panics rather than spinning.
func (k *Kernel) RunUntil(t uint64) {
	k.stopped = false
	for !k.stopped {
		b := k.events.startTick(t)
		if b == nil {
			break
		}
		k.dispatchTick(b)
	}
	if k.now < t {
		k.now = t
		k.events.advanceTo(t)
	}
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.events.len() }

// LiveProcs reports the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.live }

// Drain releases any processes still parked so their goroutines can exit.
// Call it when abandoning a simulation early (e.g. RunUntil in tests);
// a fully Run simulation needs no draining.
func (k *Kernel) Drain() {
	for _, p := range k.procs {
		if !p.finished && p.started {
			p.abort()
		}
	}
	k.events.reset()
}
