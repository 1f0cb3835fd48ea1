package sim

// Cont is a continuation: the step fn(arg) a kernel-side operation
// calls when it completes. A thread (Task) passes one of its own steps,
// a method value bound once, so handing a continuation over allocates
// nothing.
type Cont struct {
	Fn  func(uint64)
	Arg uint64
}

// Call runs the continuation.
func (c Cont) Call() { c.Fn(c.Arg) }

// WaitCell is a waiting thread's wake slot: a wake token plus the
// continuation to schedule when it is spent. A thread or a
// continuation-passing operation embeds one, bound to its own step.
// Issuing a new token or firing spends the old one, so a waiter
// registered on several signals wakes exactly once and stale wake-ups
// are ignored; tokens replace a per-wait closure, making WaitCell/Fire
// allocation-free. Firing a cell schedules the continuation with
// AfterFunc at delay 0, so a wake is one event at the firing tick.
type WaitCell struct {
	k   *Kernel
	fn  func(uint64)
	arg uint64
	gen uint64
}

// Init binds the cell to its kernel and continuation once, before use.
func (c *WaitCell) Init(k *Kernel, fn func(uint64)) {
	c.k = k
	c.fn = fn
}

// arm issues a fresh wake token carrying arg to the continuation; any
// previously issued token is spent.
func (c *WaitCell) arm(arg uint64) uint64 {
	c.gen++
	c.arg = arg
	return c.gen
}

// fire schedules the continuation if gen is the cell's current token;
// spent tokens are ignored.
func (c *WaitCell) fire(gen uint64) {
	if gen != c.gen {
		return
	}
	c.gen++ // spend the token: further fires are no-ops
	c.k.AfterFunc(0, c.fn, c.arg)
}

// waiterRef is one waiter on a Signal: a wait cell plus the wake token
// it armed. Storing the pair by value keeps the waiter list free of
// per-wait allocations.
type waiterRef struct {
	c   *WaitCell
	gen uint64
}

// Signal is a broadcast wake-up point. Threads wait on it with
// WaitCell; Fire wakes every waiter (wakes are scheduled at the firing
// tick and dispatched in FIFO order). A Signal may be reused
// indefinitely; the waiter list's backing array is recycled across
// fires.
type Signal struct {
	name    string
	waiters []waiterRef
}

// NewSignal returns a named signal for diagnostics.
func NewSignal(name string) *Signal { return &Signal{name: name} }

// WaitCell registers a kernel-side continuation for the next Fire: the
// fire schedules the cell's continuation with arg at the firing tick.
// Arming spends any previous token of the cell. The caller returns to
// the kernel loop; it must not touch the protected state again until
// the continuation runs.
func (s *Signal) WaitCell(c *WaitCell, arg uint64) {
	s.waiters = append(s.waiters, waiterRef{c: c, gen: c.arm(arg)})
}

// Fire wakes all current waiters. Threads that wait after Fire returns
// wait for the next Fire. Waking only schedules events — no step runs
// inside Fire — so the waiter list can be truncated in place and its
// backing array reused by the next round of waits.
func (s *Signal) Fire() {
	w := s.waiters
	for i := range w {
		w[i].c.fire(w[i].gen)
		w[i] = waiterRef{}
	}
	s.waiters = w[:0]
}

// Waiters reports how many waiters are registered.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Gate is a single-waiter Signal embedded by value: one wait-cell slot
// and no name, so a struct that owns its only possible waiter pays no
// allocation for the rendezvous. Fire schedules the armed continuation
// exactly as Signal.Fire would — same AfterFunc(0, …) event — so
// swapping a one-waiter Signal for a Gate leaves dispatch traces
// bit-identical.
type Gate struct {
	c   *WaitCell
	gen uint64
}

// WaitCell registers the cell's continuation for the next Fire,
// spending any previous token of the cell. At most one waiter may be
// registered at a time.
func (g *Gate) WaitCell(c *WaitCell, arg uint64) {
	g.c = c
	g.gen = c.arm(arg)
}

// Fire wakes the registered waiter, if any, and clears the slot.
func (g *Gate) Fire() {
	if g.c == nil {
		return
	}
	c, gen := g.c, g.gen
	g.c = nil
	c.fire(gen)
}

// WaitAnyCell registers the cell's continuation, with arg, for the first
// Fire of any of the given signals. One wake token is armed for all of
// them, so the first fire schedules the continuation once and later
// fires, even in the same tick, find the token spent. (Calling
// Signal.WaitCell once per signal would not do: each call re-arms the
// cell, spending the registration before it.)
func WaitAnyCell(c *WaitCell, arg uint64, sigs ...*Signal) {
	gen := c.arm(arg)
	for _, s := range sigs {
		s.waiters = append(s.waiters, waiterRef{c: c, gen: gen})
	}
}
