// Package vlq is the software queue library of §3.4: the user-level API
// through which application threads create endpoints and move messages,
// layered over the ISA operations and the routing device.
//
// The library reproduces the paper's software behaviours:
//
//   - Consumer endpoints are created spec-push-enabled by default under
//     SPAMeR — the library issues spamer_register for the endpoint's
//     lines before returning it — with a legacy option for
//     non-speculative endpoints.
//   - The dequeue function of spec-enabled endpoints omits
//     vl_select/vl_fetch entirely ("eliminating the part of the code
//     issuing vl_select and vl_fetch at compile time").
//   - Demand (VL) endpoints issue vl_select+vl_fetch on every pop,
//     unconditionally — even when the target line already holds data.
//     This is the "prerequest" behaviour observed in §4.2: a request can
//     arrive at the routing device before the line actually vacates,
//     acting as an unguided prefetch (and occasionally causing push
//     failures, Figure 10a's halo column).
//   - Queue functions charge a per-call overhead; the Inlined knob
//     switches between function-call and macro-inlined costs (§3.4's
//     1.02x experiment).
package vlq

import (
	"fmt"

	"spamer/internal/config"
	"spamer/internal/isa"
	"spamer/internal/mem"
	"spamer/internal/sim"
	"spamer/internal/vl"
)

// Limits bounds a process's routing-device resource usage — the §3.6
// DoS mitigation: "SPAMeR allocates or frees resources via system calls
// similar to memory management ... DoS can be mitigated by setting
// limits (e.g., ulimit for soft limits ...)". Zero values mean
// unlimited.
type Limits struct {
	// MaxQueues bounds SQIs created through this library instance.
	MaxQueues int
	// MaxSpecLines bounds the total consumer lines this instance may
	// register in specBuf; past it, new endpoints silently degrade to
	// demand-driven rather than monopolizing the shared specBuf.
	MaxSpecLines int
}

// Lib is one process's view of the queue library, bound to a routing
// device.
type Lib struct {
	k   *sim.Kernel
	as  *mem.AddressSpace
	dev *vl.Device
	isa *isa.ISA

	// Inlined selects macro-inlined queue functions (§3.4). The harness
	// enables it for both VL and SPAMeR runs "to show the benefits
	// brought purely by speculation" (§4.3).
	Inlined bool

	// Limits is the §3.6 resource cap for this process; zero values
	// are unlimited.
	Limits Limits

	specLines int
	queues    []*Queue

	// Block arenas behind the Queue/Producer/Consumer pointers this
	// library hands out: endpoint setup is the dominant allocation phase
	// of a run, so batching the struct storage turns one heap object per
	// endpoint into one per block. Blocks are replaced, never grown in
	// place, so earlier pointers stay valid.
	queueArena []Queue
	prodArena  []Producer
	consArena  []Consumer
}

// arenaBlock sizes the Lib arenas (queues/producers/consumers each).
const arenaBlock = 16

// New returns a library instance over the given device.
func New(k *sim.Kernel, as *mem.AddressSpace, dev *vl.Device, i *isa.ISA) *Lib {
	return &Lib{k: k, as: as, dev: dev, isa: i}
}

func (l *Lib) overhead() uint64 {
	if l.Inlined {
		return config.InlineOverheadCycles
	}
	return config.CallOverheadCycles
}

// Probe observes the application-visible message traffic of a queue: one
// Push call per message a producer submits, one Pop call per message a
// consumer takes out of a line. The verification layer (internal/oracle)
// implements it to check conservation, ordering, and payload integrity.
//
// Probe calls run synchronously inside the endpoint operation; the kernel
// runs one event at a time, so calls never overlap.
// Implementations must not schedule events or touch simulation state — a
// probe is a pure observer, and installing one must leave the dispatch
// trace bit-identical.
type Probe interface {
	// Push observes msg entering the queue through producer endpoint
	// producer at the given tick. The message already carries its
	// (Src, Seq) link tag.
	Push(q *Queue, producer int, tick uint64, msg mem.Message)
	// Pop observes msg leaving the queue through consumer endpoint
	// consumer at the given tick.
	Pop(q *Queue, consumer int, tick uint64, msg mem.Message)
}

// Queue is one M:N message channel: a Shared Queue Identifier plus its
// subscribed endpoints.
type Queue struct {
	lib  *Lib
	sqi  vl.SQI
	name string

	producers []*Producer
	consumers []*Consumer

	probe Probe

	closed bool
}

// NewQueue creates a queue (allocates an SQI). It panics when the
// device's linkTab is exhausted or the process's queue limit (§3.6) is
// reached — resource exhaustion at setup is a configuration error.
func (l *Lib) NewQueue(name string) *Queue {
	if l.Limits.MaxQueues > 0 && len(l.queues) >= l.Limits.MaxQueues {
		panic(fmt.Sprintf("vlq: queue limit %d reached (§3.6 resource cap)", l.Limits.MaxQueues))
	}
	sqi, err := l.dev.AllocSQI()
	if err != nil {
		panic(fmt.Sprintf("vlq: %v", err))
	}
	if len(l.queueArena) == cap(l.queueArena) {
		l.queueArena = make([]Queue, 0, arenaBlock)
	}
	l.queueArena = l.queueArena[:len(l.queueArena)+1]
	q := &l.queueArena[len(l.queueArena)-1]
	*q = Queue{lib: l, sqi: sqi, name: name}
	l.queues = append(l.queues, q)
	return q
}

// Queues returns every queue created through this library instance.
func (l *Lib) Queues() []*Queue { return l.queues }

// SetProbe installs a traffic observer on the queue. Must be called
// before any endpoint operates on it; a nil probe disables observation.
// Endpoints cache the probe reference at creation — the common probe-free
// case then costs one endpoint-local nil check per message instead of
// chasing through the queue — so SetProbe also refreshes any endpoint
// already subscribed.
func (q *Queue) SetProbe(p Probe) {
	q.probe = p
	for _, pr := range q.producers {
		pr.probe = p
	}
	for _, c := range q.consumers {
		c.probe = p
	}
}

// SQI returns the queue's Shared Queue Identifier.
func (q *Queue) SQI() vl.SQI { return q.sqi }

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Pushed reports messages submitted by producers so far (summed over
// endpoints).
func (q *Queue) Pushed() uint64 {
	var n uint64
	for _, pr := range q.producers {
		n += pr.seq
	}
	return n
}

// Popped reports messages delivered to consumers so far (summed over
// endpoints; see Pushed).
func (q *Queue) Popped() uint64 {
	var n uint64
	for _, c := range q.consumers {
		n += c.popped
	}
	return n
}

// Consumers returns the queue's consumer endpoints.
func (q *Queue) Consumers() []*Consumer { return q.consumers }

// Close tears the queue down: it requires every accepted message to
// have been consumed, flushes dangling prerequests, unregisters the
// SQI's speculative targets, and returns the SQI to the device (the
// system-call resource management of §3.6). Operations on a closed
// queue panic.
func (q *Queue) Close() error {
	if q.closed {
		return fmt.Errorf("vlq: %s already closed", q.name)
	}
	if pushed, popped := q.Pushed(), q.Popped(); pushed != popped {
		return fmt.Errorf("vlq: %s not drained (%d pushed, %d popped)", q.name, pushed, popped)
	}
	if err := q.lib.dev.FreeSQI(q.sqi); err != nil {
		return err
	}
	q.closed = true
	return nil
}

// Closed reports whether Close succeeded.
func (q *Queue) Closed() bool { return q.closed }

// Producers returns the queue's producer endpoints.
func (q *Queue) Producers() []*Producer { return q.producers }

// mustBeOpen panics when the queue is closed. Close returned the SQI to
// the device and the next NewQueue may already own it, so an endpoint
// operation on a closed queue would act on another queue's messages.
func (q *Queue) mustBeOpen(op string) {
	if q.closed {
		panic("vlq: " + op + " on closed queue " + q.name)
	}
}

// ---------------------------------------------------------------------
// Producer endpoint.
// ---------------------------------------------------------------------

// DefaultWindow is the per-producer bound on pushes in flight — the
// producer's endpoint page acts as a ring of lines whose ownership
// transfers to the routing device at vl_push accept (§3.1); the producer
// reuses a line only after a previous transfer completed.
const DefaultWindow = 4

// Producer is a producer endpoint: a page of lines pushed to one SQI.
//
// PushThen is a continuation-passing state machine on the kernel
// goroutine (see pushStep): each charged delay is one event, and the
// calling thread's continuation runs when the push completes.
type Producer struct {
	q      *Queue
	lib    *Lib
	id     int
	window int
	probe  Probe // cached from the queue: probe-free fast path

	credit   sim.Gate // single-waiter window rendezvous; no allocation
	acceptFn func()   // bound once; the push hot path allocates no closure
	stepFn   func(uint64)
	snd      *isa.Sender

	// OnAccept, if non-nil, observes every vl_push of this endpoint the
	// routing device accepts (tick, message sequence). Used by the
	// Figure 7 tracer as the "data arrive" event.
	OnAccept func(tick uint64, seq uint64)

	outstanding int
	seq         uint64
	accSeq      uint64 // next sequence to be accepted (acceptance is FIFO)

	// In-flight Push state: the continuation to run when the push
	// completes, its payload, and the message under construction. One
	// Push per endpoint is in flight at a time (an endpoint belongs to
	// one thread), so the state lives here rather than per call.
	then        sim.Cont
	pushPayload uint64
	pushMsg     mem.Message
	cell        sim.WaitCell
}

// Push state-machine steps (the uint64 event argument of stepFn).
const (
	prPushCredit   uint64 = iota // library overhead charged; (re-)check the window
	prPushSelected               // vl_select cycles charged; issue vl_push
	prPushIssued                 // vl_push cycles charged; hand to the sender
)

// NewProducer subscribes a producer endpoint to the queue. window bounds
// in-flight pushes; 0 selects DefaultWindow.
func (q *Queue) NewProducer(window int) *Producer {
	q.mustBeOpen("NewProducer")
	if window <= 0 {
		window = DefaultWindow
	}
	lib := q.lib
	if len(lib.prodArena) == cap(lib.prodArena) {
		lib.prodArena = make([]Producer, 0, arenaBlock)
	}
	lib.prodArena = lib.prodArena[:len(lib.prodArena)+1]
	p := &lib.prodArena[len(lib.prodArena)-1]
	*p = Producer{
		q:      q,
		lib:    lib,
		id:     len(q.producers),
		window: window,
		probe:  q.probe,
		snd:    lib.isa.NewPushSender(),
	}
	p.acceptFn = p.accepted
	p.stepFn = p.pushStep
	p.cell.Init(lib.k, p.stepFn)
	q.producers = append(q.producers, p)
	return p
}

// accepted runs at each vl_push acceptance tick. The endpoint's sender
// is an ordered store buffer, so acceptances arrive in push order and a
// counter recovers the accepted sequence number — no per-push closure
// has to capture the message.
func (pr *Producer) accepted() {
	pr.outstanding--
	pr.credit.Fire()
	seq := pr.accSeq
	pr.accSeq++
	if pr.OnAccept != nil {
		pr.OnAccept(pr.lib.k.Now(), seq)
	}
}

// PushThen enqueues one message: it starts the push and returns at
// once, and then runs on the kernel goroutine when the push completes.
// The calling thread is charged the library overhead plus
// vl_select+vl_push, and waits longer only if the producer's line
// window is exhausted (ownership of a previous line has not yet
// transferred to the routing device). The delays are charged by
// pushStep's events: one event per charged delay, one re-check event
// per credit fire.
func (pr *Producer) PushThen(payload uint64, then sim.Cont) {
	pr.q.mustBeOpen("Push")
	pr.pushPayload = payload
	pr.then = then
	pr.lib.k.AfterFunc(pr.lib.overhead(), pr.stepFn, prPushCredit)
}

// pushStep is the push state machine, driven by kernel events whose
// delays charge the op's simulated cycles.
func (pr *Producer) pushStep(state uint64) {
	lib := pr.lib
	switch state {
	case prPushCredit:
		if pr.outstanding >= pr.window {
			pr.credit.WaitCell(&pr.cell, prPushCredit)
			return
		}
		pr.outstanding++
		pr.pushMsg = mem.Message{Src: pr.id, Seq: pr.seq, Payload: pr.pushPayload}
		pr.seq++
		if pr.probe != nil {
			pr.probe.Push(pr.q, pr.id, lib.k.Now(), pr.pushMsg)
		}
		lib.isa.NoteSelect()
		lib.k.AfterFunc(config.VLSelectCycles, pr.stepFn, prPushSelected)
	case prPushSelected:
		lib.isa.NotePush()
		lib.k.AfterFunc(config.VLPushCycles, pr.stepFn, prPushIssued)
	case prPushIssued:
		lib.isa.EnqueuePush(pr.snd, pr.q.sqi, pr.pushMsg, pr.acceptFn)
		pr.then.Call()
	}
}

// ---------------------------------------------------------------------
// Consumer endpoint.
// ---------------------------------------------------------------------

// Consumer is a consumer endpoint: a page of lines that receive stashes,
// popped in round-robin order (the library "would use the cachelines of
// an endpoint in a round-robin fashion", §3.5).
//
// Each consumer operation is a continuation-passing state machine on
// the kernel goroutine (see step): the ...Then form starts it, and the
// calling thread's continuation runs when it completes.
type Consumer struct {
	q     *Queue
	lib   *Lib
	id    int
	probe Probe // cached from the queue: probe-free fast path
	page  *mem.Page
	spec  bool
	snd   *isa.Sender

	stepFn func(uint64)

	// OnFetch, if non-nil, observes every vl_fetch issued by this
	// endpoint (tick, target line index). Used by the Figure 7 tracer.
	OnFetch func(tick uint64, lineIdx int)

	// Demand-request bookkeeping. Requests are posted strictly
	// round-robin over the endpoint lines — request j names line
	// j mod nlines — so the routing device's FIFO matching delivers
	// message m into line m mod nlines, exactly the line the pop
	// taking message m reads. (An earlier design let Pop and Prefetch
	// post for independent lines; interleavings then delivered fills
	// out of the pop rotation and deadlocked multi-queue workloads.)
	postedCount uint64 // requests posted (P); request j targets line j%n
	popped      uint64 // messages taken (K); the next pop reads line K%n

	// In-flight operation state: the continuation to run when the
	// operation completes, the line it reads, the WorkCounter a Take
	// draws on (nil for Pop), and the outcome handed back. One
	// operation per endpoint is in flight at a time.
	then sim.Cont
	line *mem.Line
	wc   *WorkCounter
	msg  mem.Message
	ok   bool
	cell sim.WaitCell
}

// Consumer state-machine steps (the uint64 event argument of stepFn).
const (
	coPop           uint64 = iota // library overhead charged; begin a Pop or Take
	coFetchSel                    // vl_select cycles charged; issue vl_fetch
	coFetchIssue                  // vl_fetch cycles charged; hand to the sender, then re-check
	coTouch                       // eviction refetch penalty charged; restore residency
	coCheck                       // a fill (or eviction, or the count running out) fired; re-check the line
	coLoad                        // L1 hit latency charged; take the message if still valid
	coPrefetch                    // library overhead charged; post a request if one is owed
	coPrefetchSel                 // vl_select cycles charged; issue Prefetch's vl_fetch
	coPrefetchIssue               // vl_fetch cycles charged; hand to the sender, then complete
	coRegister                    // spamer_register cycles charged; send the registration
)

// NewConsumerThen subscribes a consumer endpoint with nlines buffer
// lines. On a SPAMeR device the endpoint is spec-push-enabled: the
// library registers its lines in specBuf (spamer_register) at creation,
// and a pop never issues vl_fetch. On a VL device it is demand-driven,
// as is every endpoint past the §3.6 MaxSpecLines cap.
//
// Registration charges the calling thread, mirroring the library
// function that creates consumer endpoints (§3.4): when the endpoint
// registers its lines NewConsumerThen returns pending = true, and then
// runs once spamer_register has been issued; otherwise it schedules
// nothing and then never runs.
func (q *Queue) NewConsumerThen(nlines int, then sim.Cont) (c *Consumer, pending bool) {
	c = q.NewConsumerLegacy(nlines)
	lib := q.lib
	if !lib.dev.Speculative() {
		return c, false
	}
	nlines = len(c.page.Lines)
	if lib.Limits.MaxSpecLines > 0 && lib.specLines+nlines > lib.Limits.MaxSpecLines {
		// §3.6 resource cap: the endpoint degrades to demand-driven
		// rather than letting one process monopolize specBuf.
		return c, false
	}
	lib.specLines += nlines
	c.spec = true
	c.then = then
	lib.isa.NoteRegister()
	lib.k.AfterFunc(config.SpamerRegCycles, c.stepFn, coRegister)
	return c, true
}

// NewConsumerLegacy subscribes a demand-driven endpoint whatever the
// device flavour: §3.4's legacy option for non-speculative endpoints.
// It registers nothing, so it charges no time.
func (q *Queue) NewConsumerLegacy(nlines int) *Consumer {
	q.mustBeOpen("NewConsumer")
	if nlines <= 0 {
		nlines = 1
	}
	lib := q.lib
	if len(lib.consArena) == cap(lib.consArena) {
		lib.consArena = make([]Consumer, 0, arenaBlock)
	}
	lib.consArena = lib.consArena[:len(lib.consArena)+1]
	c := &lib.consArena[len(lib.consArena)-1]
	*c = Consumer{
		q:     q,
		lib:   lib,
		id:    len(q.consumers),
		probe: q.probe,
		page:  lib.as.NewPage(nlines),
		snd:   lib.isa.NewFetchSender(),
	}
	c.stepFn = c.step
	c.cell.Init(lib.k, c.stepFn)
	q.consumers = append(q.consumers, c)
	return c
}

// SpecEnabled reports whether the endpoint is spec-push-enabled.
func (c *Consumer) SpecEnabled() bool { return c.spec }

// Lines exposes the endpoint's buffer lines (stats/tracing).
func (c *Consumer) Lines() []*mem.Line { return c.page.Lines }

// Result reports the outcome of the endpoint's last completed PopThen
// or WorkCounter TakeThen: the message and whether one was taken. A
// thread reads it in the operation's continuation.
func (c *Consumer) Result() (mem.Message, bool) { return c.msg, c.ok }

// totalFills sums fills across the endpoint lines; in demand mode every
// fill consumed exactly one posted request.
func (c *Consumer) totalFills() uint64 {
	var f uint64
	for _, l := range c.page.Lines {
		f += l.Fills()
	}
	return f
}

// begin records an in-flight operation.
func (c *Consumer) begin(op string, then sim.Cont) {
	c.q.mustBeOpen(op)
	c.then = then
}

// PrefetchThen posts one demand request ahead of need — even when its
// target line currently holds unconsumed data. This is the guided form
// of the "prerequest" behaviour of §4.2: a request travelling to the
// routing device while the line is still valid lets buffered producer
// data start moving before the consumer actually vacates the line. The
// resulting push can miss (the line has not vacated yet) and retry —
// the source of the VL baseline's non-zero failure rate on halo (Figure
// 10a) — but is overall beneficial.
//
// At most one unconsumed request per line is kept outstanding.
// Spec-enabled endpoints never request: on them PrefetchThen schedules
// nothing, returns false, and then never runs. Otherwise it returns
// true and then runs once the request is posted.
func (c *Consumer) PrefetchThen(then sim.Cont) bool {
	c.begin("Prefetch", then)
	if c.spec {
		return false
	}
	c.lib.k.AfterFunc(c.lib.overhead(), c.stepFn, coPrefetch)
	return true
}

// PopThen dequeues one message: then runs once data is available in
// the endpoint's next line and taken, and Result reports the message.
//
// Demand (VL) endpoints issue vl_select+vl_fetch for the line first
// (unless a request is already outstanding, e.g. from PrefetchThen) —
// even if it currently holds data, which is the unguided prerequest of
// §4.2. Spec-enabled endpoints skip the request entirely; the routing
// device is expected to push speculatively.
func (c *Consumer) PopThen(then sim.Cont) { c.pop(nil, then) }

// pop starts a pop, or with wc set a take drawing on wc.
func (c *Consumer) pop(wc *WorkCounter, then sim.Cont) {
	c.begin("Pop", then)
	c.wc = wc
	c.lib.k.AfterFunc(c.lib.overhead(), c.stepFn, coPop)
}

// step is the consumer state machine, driven by kernel events whose
// delays charge the op's simulated cycles: the unguided-prerequest
// fetch loop, the eviction refetch, and the load-to-use recheck.
func (c *Consumer) step(state uint64) {
	switch state {
	case coPop:
		c.line = c.page.Lines[int(c.popped)%len(c.page.Lines)]
		if !c.spec && (c.wc == nil || (c.line.State != mem.LineValid && c.wc.remaining != 0)) {
			c.fetchLoop()
			return
		}
		c.await()
	case coFetchSel:
		c.fetchSelected(coFetchIssue)
	case coPrefetchSel:
		c.fetchSelected(coPrefetchIssue)
	case coFetchIssue:
		c.issueFetch()
		c.fetchLoop()
	case coTouch:
		// Residency re-established after the refetch penalty (the
		// waiting consumer's load missed; Touch restores a written-back
		// message, firing OnFill for any sibling waiters).
		c.line.Touch()
		c.await()
	case coCheck:
		c.await()
	case coLoad:
		// Load-to-use complete. The eviction timer can fire during the
		// hit-latency delay; the write-back preserves the message, so
		// fall back into the wait loop to refetch it.
		if c.line.State == mem.LineValid {
			c.take()
			return
		}
		c.await()
	case coPrefetch:
		if c.postedCount-c.totalFills() < uint64(len(c.page.Lines)) {
			c.postFetch(coPrefetchSel)
			return
		}
		c.then.Call()
	case coPrefetchIssue:
		c.issueFetch()
		c.then.Call()
	case coRegister:
		c.lib.isa.SendRegister(c.q.sqi, c.page.Base, len(c.page.Lines))
		c.then.Call()
	}
}

// fetchLoop posts the demand requests owed before the pop may complete
// ("ensure the k-th fill has a request" — the unguided prerequest of
// §4.2), one vl_select+vl_fetch pair per iteration, then falls into the
// line-wait loop.
func (c *Consumer) fetchLoop() {
	if c.postedCount <= c.popped {
		c.postFetch(coFetchSel)
		return
	}
	c.await()
}

// postFetch starts the next request of the endpoint's round-robin
// request stream: vl_select now, vl_fetch at the sel step.
func (c *Consumer) postFetch(sel uint64) {
	c.lib.isa.NoteSelect()
	c.lib.k.AfterFunc(config.VLSelectCycles, c.stepFn, sel)
}

// fetchSelected issues vl_fetch once vl_select is charged; the issue
// step runs when vl_fetch is charged.
func (c *Consumer) fetchSelected(issue uint64) {
	c.lib.isa.NoteFetch()
	c.lib.k.AfterFunc(config.VLFetchCycles, c.stepFn, issue)
}

// issueFetch hands the request posted by postFetch to the sender once
// its cycles are charged.
func (c *Consumer) issueFetch() {
	i := int(c.postedCount) % len(c.page.Lines)
	c.lib.isa.EnqueueFetch(c.snd, c.q.sqi, c.page.Lines[i].Addr)
	c.postedCount++
	if c.OnFetch != nil {
		c.OnFetch(c.lib.k.Now(), i)
	}
}

// await advances the wait-for-data loop one step: valid lines proceed to
// the load-to-use delay, evicted lines pay the refetch penalty, and
// empty lines park the state machine on OnFill — and, for a Take, on
// the count's done signal too, unless the count has already run out.
func (c *Consumer) await() {
	switch c.line.State {
	case mem.LineValid:
		c.lib.k.AfterFunc(config.L1HitCycles, c.stepFn, coLoad)
	case mem.LineEvicted:
		c.lib.k.AfterFunc(config.EvictPenalty, c.stepFn, coTouch)
	default:
		if c.wc == nil {
			c.line.OnFill.WaitCell(&c.cell, coCheck)
			return
		}
		if c.wc.remaining == 0 {
			c.msg, c.ok = mem.Message{}, false
			c.then.Call()
			return
		}
		sim.WaitAnyCell(&c.cell, coCheck, &c.line.OnFill, &c.wc.done)
	}
}

// take takes the message from the line, counts it against a Take's
// WorkCounter, and completes the operation.
func (c *Consumer) take() {
	line := c.line
	line.NoteFirstUse(line.Msg)
	c.msg, c.ok = line.Take(), true
	c.popped++
	if c.probe != nil {
		c.probe.Pop(c.q, c.id, c.lib.k.Now(), c.msg)
	}
	if c.wc != nil {
		c.wc.took()
	}
	c.then.Call()
}

// ---------------------------------------------------------------------
// Shared drain.
// ---------------------------------------------------------------------

// WorkCounter coordinates multiple consumers draining a fixed global
// message count from one queue when the per-consumer share is not known
// statically (M:N queues under speculative rotation deliver
// approximately, not exactly, evenly). The consumer that takes the last
// message wakes every sibling still waiting; a request a demand
// endpoint posted may stay parked at the routing device, which is
// harmless once no producer data remains.
type WorkCounter struct {
	name      string
	remaining int
	done      sim.Signal
}

// NewWorkCounter returns a counter for total messages.
func NewWorkCounter(name string, total int) *WorkCounter {
	return &WorkCounter{name: name, remaining: total}
}

// Name reports the counter's diagnostic name.
func (wc *WorkCounter) Name() string { return wc.name }

// Remaining reports undelivered messages.
func (wc *WorkCounter) Remaining() int { return wc.remaining }

// TakeThen pops one message from c unless the count runs out first.
// When the count is already exhausted it schedules nothing, returns
// false, and then never runs; otherwise then runs once c has taken a
// message or the count has run out, and c.Result reports which. Unlike
// PopThen, a demand endpoint posts a request only when its line holds
// no data and the count has not run out.
func (wc *WorkCounter) TakeThen(c *Consumer, then sim.Cont) bool {
	if wc.remaining == 0 {
		return false
	}
	c.pop(wc, then)
	return true
}

// took counts one taken message, waking the waiting siblings once the
// count is exhausted.
func (wc *WorkCounter) took() {
	wc.remaining--
	if wc.remaining == 0 {
		wc.done.Fire()
	}
}
