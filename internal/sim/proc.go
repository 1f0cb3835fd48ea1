package sim

import "fmt"

// Proc is a cooperative simulation process. A Proc runs on its own
// goroutine, but the kernel hands control to exactly one goroutine at a
// time, so process bodies may touch shared simulator state without locks
// and the interleaving is deterministic.
//
// A process body blocks simulated time only through the Proc methods
// (Sleep, Wait, Yield); ordinary Go computation takes zero simulated time.
type Proc struct {
	k    *Kernel
	name string
	// sync is the single control-handoff channel. Kernel and process
	// alternate strictly — the kernel sends to resume the process, the
	// process sends to park itself — so one unbuffered channel carries
	// both directions: at any moment at most one side is sending and the
	// other receiving, and each wake or park is exactly one handoff.
	sync     chan struct{}
	body     func(p *Proc) // held until the start event runs, then released
	idx      uint64        // procs index << 1: the kernel trampoline's dispatch arg
	started  bool
	finished bool
	aborted  bool
	wakes    uint64   // diagnostic: number of times resumed
	cell     WaitCell // wake-token state shared with kernel-side waiters
}

// procArenaBlock batches Proc storage: a system spawns a few dozen
// processes at setup, so block storage turns one heap object per spawn
// into one per block. Blocks are replaced when full, never grown in
// place, so *Proc pointers stay valid.
const procArenaBlock = 16

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
				b := p.body
				p.body = nil // release the closure once the goroutine owns it
				go p.run(b)
			}
			p.dispatch()
		}
		k.procs = k.procs0[:0]
		k.procArena = k.procArena0[:0]
	}
	if len(k.procArena) == cap(k.procArena) {
		k.procArena = make([]Proc, 0, procArenaBlock)
	}
	k.procArena = k.procArena[:len(k.procArena)+1]
	p := &k.procArena[len(k.procArena)-1]
	*p = Proc{
		k:    k,
		name: name,
		sync: make(chan struct{}),
		body: body,
		idx:  uint64(len(k.procs)) << 1,
	}
	p.cell.Init(k, k.procFn)
	k.procs = append(k.procs, p)
	k.live++
	k.AfterFunc(0, k.procFn, p.idx|1)
	return p
}

func (p *Proc) run(body func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAbort); ok {
				p.finished = true
				p.k.live--
				p.sync <- struct{}{}
				return
			}
			panic(r)
		}
	}()
	<-p.sync
	body(p)
	p.finished = true
	p.k.live--
	p.sync <- struct{}{}
}

// dispatch transfers control from the kernel goroutine to the process and
// waits until the process yields or finishes.
func (p *Proc) dispatch() {
	if p.finished {
		return
	}
	p.wakes++
	p.sync <- struct{}{}
	<-p.sync
}

// yield parks the process and returns control to the kernel goroutine.
// The process stays parked until some event calls dispatch again.
func (p *Proc) yield() {
	p.sync <- struct{}{}
	<-p.sync
	if p.aborted {
		panic(procAbort{})
	}
}

// abort unwinds a parked process so its goroutine exits. Kernel-side only.
func (p *Proc) abort() {
	if p.finished || !p.started {
		return
	}
	p.aborted = true
	p.sync <- struct{}{}
	<-p.sync
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

// armWait issues a wake token for the process's next park. A waker that
// still holds the current token (a fire with a matching gen) wakes the
// process; issuing a new token or firing spends the old one, so a process
// parked on several signals (WaitAny) wakes exactly once and stale
// wake-ups are ignored. Tokens replace the per-wait closure the seed
// kernel allocated (waitPoint), making Wait/Fire allocation-free.
func (p *Proc) armWait() uint64 { return p.cell.arm(p.idx) }

// Park parks the calling process until a kernel-side continuation hands
// control back with Unpark. It is the blocking half of the
// continuation-passing endpoint operations (internal/vlq): the operation
// schedules its first step with AfterFunc, Parks the body, runs its
// intermediate steps as plain events on the kernel goroutine, and the
// final step calls Unpark — one goroutine handoff per operation instead
// of one per step, with the event schedule unchanged.
func (p *Proc) Park() { p.yield() }

// Unpark resumes a process parked with Park. It must be called from the
// kernel goroutine (inside an event callback), never from another
// process; control transfers to the parked body immediately and returns
// here when the body next blocks — exactly as if the running event had
// been the process's own wake event.
func (p *Proc) Unpark() { p.dispatch() }

// WaitCell is the kernel-side analogue of a parked process: a wake token
// plus the continuation to schedule when it is spent. Procs embed one
// (continuation = the proc's dispatch); continuation-passing endpoint
// operations embed their own with the state-machine step as the
// continuation. Firing a cell schedules the continuation with AfterFunc
// at delay 0 — the same event a woken process would cost — so replacing a
// parked process with a cell leaves the dispatch trace bit-identical.
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
	s.waiters = append(s.waiters, waiterRef{c: &p.cell, gen: p.armWait()})
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

// WaitAny parks p until any of the given signals fires. The signals share
// one wake token, so the first Fire wakes p and later fires find the
// token spent and ignore it.
func WaitAny(p *Proc, sigs ...*Signal) {
	gen := p.armWait()
	for _, s := range sigs {
		s.waiters = append(s.waiters, waiterRef{c: &p.cell, gen: gen})
	}
	p.yield()
}
