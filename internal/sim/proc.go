//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a cooperative simulation process. A started Proc runs on a
// runner, a stdlib coroutine (iter.Pull), and the kernel resumes exactly
// one coroutine at a time from its own goroutine, so process bodies may
// touch shared simulator state without locks and the interleaving is
// deterministic.
//
// A process body blocks simulated time only through the Proc methods
// (Sleep, Wait, Yield); ordinary Go computation takes zero simulated time.
type Proc struct {
	k        *Kernel
	name     string
	r        *runner       // the coroutine running the body, from start until it returns
	body     func(p *Proc) // held until the body starts, then released
	idx      uint64        // procs index << 1: the kernel trampoline's dispatch arg
	started  bool
	finished bool
	aborted  bool
	wakes    uint64   // diagnostic: number of times resumed
	cell     WaitCell // wake-token state shared with kernel-side waiters
}

// arenaBlock batches Proc and Task storage: a system spawns a few dozen
// threads at setup, so block storage turns one heap object per spawn
// into one per block. Blocks are replaced when full, never grown in
// place, so *Proc and *Task pointers stay valid.
const arenaBlock = 16

// procAbort is the panic value used to unwind an abandoned process.
type procAbort struct{}

// Go spawns a process that starts executing at the current tick.
// The body runs until it returns; the kernel regains control whenever the
// body blocks on a Proc method.
func (k *Kernel) Go(name string, body func(p *Proc)) *Proc {
	if k.procFn == nil {
		// One kernel-wide trampoline, bound once, replaces the per-proc
		// dispatch closure and per-spawn start closure: the event arg
		// selects the proc (idx<<1) and the action (low bit = first
		// start). k.procs is append-only, so the index is stable.
		k.procFn = func(a uint64) {
			p := k.procs[a>>1]
			if a&1 != 0 {
				p.started = true
				p.r = getRunner()
				p.r.p = p
			}
			p.dispatch()
		}
		k.procs = k.procs0[:0]
		k.procArena = k.procArena0[:0]
	}
	if len(k.procArena) == cap(k.procArena) {
		k.procArena = make([]Proc, 0, arenaBlock)
	}
	k.procArena = k.procArena[:len(k.procArena)+1]
	p := &k.procArena[len(k.procArena)-1]
	*p = Proc{
		k:    k,
		name: name,
		body: body,
		idx:  uint64(len(k.procs)) << 1,
	}
	p.cell.Init(k, k.procFn)
	k.procs = append(k.procs, p)
	k.live++
	k.AfterFunc(0, k.procFn, p.idx|1)
	return p
}

// runner is one pulled coroutine that runs process bodies back to back:
// resuming it (next) runs the current body until the body parks (yield)
// or returns, and a runner whose body has returned idles in yield until
// it is handed another process. Finished runners wait on a bounded
// package-level free list shared by every kernel, because a fresh
// runner costs 13 allocations and a reused one none.
type runner struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool // the coroutine's yield, bound on first resume
	p     *Proc               // the process being run; nil while idle
}

// maxIdleRunners caps the free list. Each idle runner holds one parked
// goroutine; runners released past the cap are stopped instead.
const maxIdleRunners = 256

var idle struct {
	sync.Mutex
	free []*runner
}

// getRunner takes an idle runner off the free list or pulls a new one.
func getRunner() *runner {
	idle.Lock()
	if n := len(idle.free); n > 0 {
		r := idle.free[n-1]
		idle.free[n-1] = nil
		idle.free = idle.free[:n-1]
		idle.Unlock()
		return r
	}
	idle.Unlock()
	r := &runner{}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// putRunner returns a runner whose body has finished to the free list,
// or stops it when the list is full.
func putRunner(r *runner) {
	idle.Lock()
	if len(idle.free) < maxIdleRunners {
		idle.free = append(idle.free, r)
		idle.Unlock()
		return
	}
	idle.Unlock()
	r.stop()
}

// IdleRunners reports how many finished runners wait on the free list,
// each holding one parked goroutine. It never exceeds a fixed cap, so
// leak checks subtract it from runtime.NumGoroutine.
func IdleRunners() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.free)
}

// loop is the runner's coroutine body.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		r.p.run()
		r.p = nil
		if !yield(struct{}{}) {
			return // stopped while idle
		}
	}
}

// run executes the body on the runner's coroutine. An abort's procAbort
// unwind ends here. Any other panic ends the coroutine and is re-raised
// on the kernel goroutine out of next, so it unwinds through Kernel.Run,
// which drains the remaining processes, to Run's caller.
func (p *Proc) run() {
	defer func() {
		p.finished = true
		p.k.live--
		if r := recover(); r != nil {
			if _, ok := r.(procAbort); !ok {
				panic(r)
			}
		}
	}()
	body := p.body
	p.body = nil // release the closure once the runner owns it
	body(p)
}

// dispatch transfers control from the kernel goroutine to the process
// until the process yields or finishes.
func (p *Proc) dispatch() {
	if p.finished {
		return
	}
	p.wakes++
	p.resume()
}

// resume switches to the process's coroutine until the body parks or
// returns; a finished body's runner goes back on the free list.
func (p *Proc) resume() {
	r := p.r
	r.next()
	if p.finished {
		p.r = nil
		putRunner(r)
	}
}

// yield parks the process and returns control to the kernel goroutine.
// The process stays parked until some event calls dispatch again.
func (p *Proc) yield() {
	if !p.r.yield(struct{}{}) || p.aborted {
		panic(procAbort{})
	}
}

// abort unwinds a parked process so its runner is freed. Kernel-side only.
func (p *Proc) abort() {
	if p.finished || !p.started {
		return
	}
	p.aborted = true
	p.resume()
}

// Name reports the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated tick.
func (p *Proc) Now() uint64 { return p.k.now }

// Finished reports whether the body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Sleep advances this process d ticks of simulated time.
// Sleep(0) is a pure yield point: other events at the current tick run
// before the process continues.
func (p *Proc) Sleep(d uint64) {
	p.k.AfterFunc(d, p.k.procFn, p.idx)
	p.yield()
}

// Park parks the calling process until its continuation (Resume) runs.
// It is the blocking half of the continuation-passing endpoint
// operations (internal/vlq): the blocking form of an operation starts
// its continuation form with p.Resume() as the continuation and Parks
// the body; the operation's steps run as plain events on the kernel
// goroutine, and the last one calls the continuation — one coroutine
// switch per operation instead of one per step, with the event schedule
// unchanged.
func (p *Proc) Park() { p.yield() }

// Resume returns the continuation that resumes p where it parked: the
// kernel's dispatch trampoline with p's index, the same call p's own
// wake events make. Call it only from the kernel goroutine (inside an
// event callback), never from a process body; control transfers to the
// parked body and returns when the body next blocks.
func (p *Proc) Resume() Cont { return Cont{Fn: p.k.procFn, Arg: p.idx} }

// Cont is a continuation: the step fn(arg) a kernel-side operation
// calls when it completes, where a blocking operation would return to
// its caller. A process passes its Resume; a process-free thread (Task)
// passes one of its own steps, a method value bound once, so handing a
// continuation over allocates nothing.
type Cont struct {
	Fn  func(uint64)
	Arg uint64
}

// Call runs the continuation.
func (c Cont) Call() { c.Fn(c.Arg) }

// WaitCell is the kernel-side analogue of a parked process: a wake token
// plus the continuation to schedule when it is spent. Procs embed one
// (continuation = the proc's dispatch); continuation-passing endpoint
// operations embed their own with the state-machine step as the
// continuation. Issuing a new token or firing spends the old one, so a
// waiter registered on several signals wakes exactly once and stale
// wake-ups are ignored; tokens replace the per-wait closure the seed
// kernel allocated, making Wait/Fire allocation-free. Firing a cell
// schedules the continuation with AfterFunc at delay 0 — the same event
// a woken process would cost — so replacing a parked process with a
// cell leaves the dispatch trace bit-identical.
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

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string {
	state := "parked"
	if p.finished {
		state = "finished"
	}
	return fmt.Sprintf("proc(%s, %s, wakes=%d)", p.name, state, p.wakes)
}

// waiterRef is one parked waiter on a Signal: a wait cell (a process's
// embedded cell or a continuation-passing operation's own) plus the wake
// token it armed. Storing the pair by value keeps the waiter list free of
// per-wait allocations.
type waiterRef struct {
	c   *WaitCell
	gen uint64
}

// Signal is a broadcast wake-up point. Processes park on it with Wait;
// Fire wakes every parked process (resumptions are scheduled at the firing
// tick and dispatched in FIFO order). A Signal may be reused indefinitely;
// the waiter list's backing array is recycled across fires.
type Signal struct {
	name    string
	waiters []waiterRef
	fires   uint64
}

// NewSignal returns a named signal for diagnostics.
func NewSignal(name string) *Signal { return &Signal{name: name} }

// Wait parks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.WaitCell(&p.cell, p.idx)
	p.yield()
}

// WaitCell registers a kernel-side continuation for the next Fire: the
// fire schedules the cell's continuation with arg at the firing tick,
// exactly as it would wake a parked process. Arming spends any previous
// token of the cell. The caller returns to the kernel loop; it must not
// touch the protected state again until the continuation runs.
func (s *Signal) WaitCell(c *WaitCell, arg uint64) {
	s.waiters = append(s.waiters, waiterRef{c: c, gen: c.arm(arg)})
}

// Fire wakes all currently parked processes. Processes that Wait after
// Fire returns park until the next Fire. Waking only schedules resumption
// events — no process body runs inside Fire — so the waiter list can be
// truncated in place and its backing array reused by the next round of
// Waits.
func (s *Signal) Fire() {
	s.fires++
	w := s.waiters
	for i := range w {
		w[i].c.fire(w[i].gen)
		w[i] = waiterRef{}
	}
	s.waiters = w[:0]
}

// Waiters reports how many processes are currently parked.
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

// Fires reports how many times Fire has been called.
func (s *Signal) Fires() uint64 { return s.fires }

// WaitUntil parks p, re-checking cond each time sig fires, until cond
// reports true. cond is checked once before parking.
func WaitUntil(p *Proc, sig *Signal, cond func() bool) {
	for !cond() {
		sig.Wait(p)
	}
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
