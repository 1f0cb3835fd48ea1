// Package vlq is the software queue library of §3.4: the user-level API
// through which application threads create endpoints and move messages.
// The library issues the ISA operations of §3.3 itself — vl_select,
// vl_push, vl_fetch, and the vl_fetch alias spamer_register — charging
// each op's core-side cycles (config.VLSelectCycles, VLPushCycles,
// VLFetchCycles, SpamerRegCycles) and sending its device write over the
// bus to the routing device.
//
// vl_push and vl_fetch are posted writes: the core does not stall for
// the round trip. Backpressure appears as NACKs (prodBuf/consBuf
// exhausted), which each endpoint replays in order after a backoff — the
// micro-architectural analogue of a store buffer replaying a rejected
// device write (see writeQueue).
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
	"sync"

	"spamer/internal/blocks"
	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/noc"
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
	bus *noc.Bus
	as  *mem.AddressSpace
	dev *vl.Device

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
	// endpoint into one per block, and a recycled library none.
	queueArena blocks.Arena[Queue]
	prodArena  blocks.Arena[Producer]
	consArena  blocks.Arena[Consumer]
}

// libs holds released libraries for New to reuse (see Release).
var libs sync.Pool

// New returns a library instance over the given device. It reuses the
// storage of a released library when the pool holds one.
func New(k *sim.Kernel, bus *noc.Bus, as *mem.AddressSpace, dev *vl.Device) *Lib {
	l, _ := libs.Get().(*Lib)
	if l == nil {
		l = new(Lib)
	}
	l.init(k, bus, as, dev)
	return l
}

// init binds the library to its device with no queues and the default
// knobs. It keeps the record blocks and the queue index a released
// library brings (which Release emptied), so a fresh and a recycled
// library start from the same state.
func (l *Lib) init(k *sim.Kernel, bus *noc.Bus, as *mem.AddressSpace, dev *vl.Device) {
	l.k, l.bus, l.as, l.dev = k, bus, as, dev
	l.Inlined, l.Limits, l.specLines = false, Limits{}, 0
	l.queues = l.queues[:0]
}

// Release hands the library's storage to a later New. Call it only when
// nothing will touch the library, or a queue or endpoint from it, again:
// the next library may already own the storage. It first zeroes every
// queue and endpoint record, which drops what they point at (threads'
// continuations, probes), so a pooled library keeps no earlier
// simulation alive.
func (l *Lib) Release() {
	l.queueArena.Reset()
	l.prodArena.Reset()
	l.consArena.Reset()
	clear(l.queues)
	l.k, l.bus, l.as, l.dev = nil, nil, nil, nil
	libs.Put(l)
}

func (l *Lib) overhead() uint64 {
	if l.Inlined {
		return config.InlineOverheadCycles
	}
	return config.CallOverheadCycles
}

// Probe observes a queue's endpoint events: each message's way from the
// producer that submits it, through the routing device, into a consumer
// line and out to the consumer, plus the consumers' demand requests.
// The verification layer (internal/oracle) implements it to check
// conservation, ordering, and payload integrity; the Figure 7 tracer
// (internal/trace) implements it to timestamp each transaction.
// Producers and consumers are named by their index on the queue, lines
// by their index within the consumer's page.
//
// A queue's probe is fixed when the queue is made (Lib.NewQueue). Probe
// calls run synchronously inside the endpoint operation, at the tick
// they report; the kernel runs one event at a time, so calls never
// overlap. Implementations must not schedule events or touch simulation
// state — a probe is a pure observer, and installing one must leave the
// dispatch trace bit-identical.
type Probe interface {
	// Push observes msg entering the queue through producer endpoint
	// producer, when the endpoint takes a window slot for it. The
	// message already carries its (Src, Seq) link tag.
	Push(q *Queue, producer int, tick uint64, msg mem.Message)
	// Accept observes the routing device accepting producer's vl_push
	// of message seq: the data has arrived at the device.
	Accept(q *Queue, producer int, tick uint64, seq uint64)
	// Fetch observes consumer endpoint consumer issuing a vl_fetch
	// request for its line.
	Fetch(q *Queue, consumer, line int, tick uint64)
	// Fill observes msg landing in line of consumer endpoint consumer,
	// whether pushed on demand or speculatively.
	Fill(q *Queue, consumer, line int, tick uint64, msg mem.Message)
	// Pop observes consumer endpoint consumer taking msg out of its
	// line: the consumer's first use of the message, and the tick the
	// line vacates.
	Pop(q *Queue, consumer, line int, tick uint64, msg mem.Message)
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

// NewQueue creates a queue (allocates an SQI) whose endpoint events p
// observes; a nil p observes nothing. It panics when the device's
// linkTab is exhausted or the process's queue limit (§3.6) is reached —
// resource exhaustion at setup is a configuration error.
func (l *Lib) NewQueue(name string, p Probe) *Queue {
	if l.Limits.MaxQueues > 0 && len(l.queues) >= l.Limits.MaxQueues {
		panic(fmt.Sprintf("vlq: queue limit %d reached (§3.6 resource cap)", l.Limits.MaxQueues))
	}
	sqi, err := l.dev.AllocSQI()
	if err != nil {
		panic(fmt.Sprintf("vlq: %v", err))
	}
	q := l.queueArena.New()
	*q = Queue{lib: l, sqi: sqi, name: name, probe: p}
	l.queues = append(l.queues, q)
	return q
}

// Queues returns every queue created through this library instance.
func (l *Lib) Queues() []*Queue { return l.queues }

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
// Ordered device writes.
// ---------------------------------------------------------------------

// RetryBackoffCycles spaces out replays of NACKed device writes.
const RetryBackoffCycles = 12

// MaxRetries bounds the sends of one device write before the endpoint
// panics; a healthy configuration never gets near it, so hitting the
// bound almost always means a deadlocked workload.
const MaxRetries = 1 << 20

// writeQueue is one endpoint's ordered device-write queue: the vl_push
// (or vl_fetch) writes it has issued, oldest first, until the routing
// device accepts them. One write is on the bus at a time, and a NACKed
// write replays before any younger write of the same endpoint goes out
// — store-buffer semantics. Without that order a replayed vl_push could
// land behind a younger push of the same producer and break
// per-producer FIFO delivery. Writes of different endpoints interleave
// freely, as they would from different cores.
//
// The queue holds only data: the endpoint sends the head write with
// its own step function as the packet's delivery event, so the
// push/fetch hot path allocates nothing per message.
type writeQueue[T any] struct {
	q     []T
	head  int  // q[:head] are accepted; the array is reused, not resliced away
	busy  bool // q[head] is on the bus or waiting out its replay backoff
	nacks int  // NACKs of q[head] so far
}

// add queues v and reports whether the endpoint must send it now: it
// is the head and no write is on the bus.
func (w *writeQueue[T]) add(v T) bool {
	if w.head > 0 && len(w.q) == cap(w.q) {
		// Compact the accepted prefix away before growing, so a queue
		// that never fully drains still reaches a steady-state array.
		w.q, w.head = w.q[:copy(w.q, w.q[w.head:])], 0
	}
	w.q = append(w.q, v)
	return w.next()
}

// next reports whether a write waits and none is on the bus, and if so
// marks the head as sent.
func (w *writeQueue[T]) next() bool {
	if w.busy || w.head == len(w.q) {
		return false
	}
	w.busy = true
	return true
}

// first returns the write on the bus.
func (w *writeQueue[T]) first() T { return w.q[w.head] }

// retire drops the head write once the device has accepted it.
func (w *writeQueue[T]) retire() {
	w.head++
	if w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
	w.busy, w.nacks = false, 0
}

// nacked counts a NACK of the head write, which stays at the head to be
// replayed; past MaxRetries sends it panics, naming sqi.
func (w *writeQueue[T]) nacked(sqi vl.SQI) {
	if w.nacks++; w.nacks >= MaxRetries {
		panic(fmt.Sprintf("vlq: device-write replay bound exceeded on sqi %d (deadlocked workload?)", sqi))
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
// calling thread's continuation runs when the push completes. The same
// step function carries the endpoint's vl_push writes to the device.
type Producer struct {
	q      *Queue
	lib    *Lib
	id     int
	window int
	probe  Probe // cached from the queue: probe-free fast path

	credit sim.Gate // single-waiter window rendezvous; no allocation
	stepFn func(uint64)
	writes writeQueue[mem.Message]

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
	prPushIssued                 // vl_push cycles charged; queue the device write
	prWriteArrived               // the head write's packet reached the device
	prWriteReplay                // a NACKed head write's backoff elapsed; resend it
)

// NewProducer subscribes a producer endpoint to the queue. window bounds
// in-flight pushes; 0 selects DefaultWindow.
func (q *Queue) NewProducer(window int) *Producer {
	q.mustBeOpen("NewProducer")
	if window <= 0 {
		window = DefaultWindow
	}
	lib := q.lib
	p := lib.prodArena.New()
	*p = Producer{
		q:      q,
		lib:    lib,
		id:     len(q.producers),
		window: window,
		probe:  q.probe,
	}
	p.stepFn = p.pushStep
	p.cell.Init(lib.k, p.stepFn)
	q.producers = append(q.producers, p)
	return p
}

// accepted runs at each vl_push acceptance tick. The endpoint's writes
// are accepted in push order, so a counter recovers the accepted
// sequence number.
func (pr *Producer) accepted() {
	pr.outstanding--
	pr.credit.Fire()
	seq := pr.accSeq
	pr.accSeq++
	if pr.probe != nil {
		pr.probe.Accept(pr.q, pr.id, pr.lib.k.Now(), seq)
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
// delays charge the op's simulated cycles, and by the packet arrivals
// and replay backoffs of the endpoint's device writes.
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
		lib.k.AfterFunc(config.VLSelectCycles, pr.stepFn, prPushSelected)
	case prPushSelected:
		lib.k.AfterFunc(config.VLPushCycles, pr.stepFn, prPushIssued)
	case prPushIssued:
		// vl_push copies the selected line's content to the routing
		// device without changing the line's coherence state. Posted:
		// the thread continues while the write travels.
		if pr.writes.add(pr.pushMsg) {
			pr.sendWrite()
		}
		pr.then.Call()
	case prWriteArrived:
		if !lib.dev.Push(pr.q.sqi, pr.writes.first()) {
			pr.writes.nacked(pr.q.sqi)
			lib.k.AfterFunc(RetryBackoffCycles, pr.stepFn, prWriteReplay)
			return
		}
		pr.writes.retire()
		pr.accepted()
		if pr.writes.next() {
			pr.sendWrite()
		}
	case prWriteReplay:
		pr.sendWrite()
	}
}

// sendWrite puts the head vl_push write on the bus.
func (pr *Producer) sendWrite() {
	pr.lib.bus.SendFunc(noc.PktPush, pr.stepFn, prWriteArrived)
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

	stepFn func(uint64)
	writes writeQueue[mem.Addr] // vl_fetch targets

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
	coFetchIssue                  // vl_fetch cycles charged; queue the device write, then re-check
	coTouch                       // eviction refetch penalty charged; restore residency
	coCheck                       // a fill (or eviction, or the count running out) fired; re-check the line
	coLoad                        // L1 hit latency charged; take the message if still valid
	coPrefetch                    // library overhead charged; post a request if one is owed
	coPrefetchSel                 // vl_select cycles charged; issue Prefetch's vl_fetch
	coPrefetchIssue               // vl_fetch cycles charged; queue the device write, then complete
	coRegister                    // spamer_register cycles charged; send the registration
	coRegistered                  // the registration's packet reached the device
	coWriteArrived                // the head vl_fetch write's packet reached the device
	coWriteReplay                 // a NACKed head write's backoff elapsed; resend it
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
	c := lib.consArena.New()
	*c = Consumer{
		q:     q,
		lib:   lib,
		id:    len(q.consumers),
		probe: q.probe,
		page:  lib.as.NewPage(nlines),
	}
	c.stepFn = c.step
	c.cell.Init(lib.k, c.stepFn)
	if c.probe != nil {
		filled := c.filled
		for _, l := range c.page.Lines {
			l.ObserveFills(filled)
		}
	}
	q.consumers = append(q.consumers, c)
	return c
}

// SpecEnabled reports whether the endpoint is spec-push-enabled.
func (c *Consumer) SpecEnabled() bool { return c.spec }

// Lines exposes the endpoint's buffer lines (stats/tracing).
func (c *Consumer) Lines() []*mem.Line { return c.page.Lines }

// lineIndex reports l's index within the endpoint's page.
func (c *Consumer) lineIndex(l *mem.Line) int {
	return int((l.Addr - c.page.Base) / config.LineBytes)
}

// filled is the fill observer of a probed endpoint's lines.
func (c *Consumer) filled(l *mem.Line) {
	c.probe.Fill(c.q, c.id, c.lineIndex(l), c.lib.k.Now(), l.Msg)
}

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
// delays charge the op's simulated cycles — the unguided-prerequest
// fetch loop, the eviction refetch, and the load-to-use recheck — and
// by the packet arrivals and replay backoffs of the endpoint's device
// writes.
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
		c.lib.k.AfterFunc(config.VLFetchCycles, c.stepFn, coFetchIssue)
	case coPrefetchSel:
		c.lib.k.AfterFunc(config.VLFetchCycles, c.stepFn, coPrefetchIssue)
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
			c.lib.k.AfterFunc(config.VLSelectCycles, c.stepFn, coPrefetchSel)
			return
		}
		c.then.Call()
	case coPrefetchIssue:
		c.issueFetch()
		c.then.Call()
	case coRegister:
		// spamer_register is "a vl_fetch instruction writing to
		// specBuf" (§3.3): one packet naming the endpoint's lines.
		c.lib.bus.SendFunc(noc.PktRegister, c.stepFn, coRegistered)
		c.then.Call()
	case coRegistered:
		// A failed registration is a configuration error (specBuf
		// exhausted); the §4.5 position is that the OS manages specBuf
		// like any limited resource.
		if err := c.lib.dev.Register(c.q.sqi, c.page.Base, len(c.page.Lines)); err != nil {
			panic(err)
		}
	case coWriteArrived:
		// A NACKed fetch once every thread has exited is a dangling
		// prerequest: no pop will take its fill, so it is dropped
		// instead of replaying until the replay bound fails a run
		// whose work is done.
		if !c.lib.dev.Fetch(c.q.sqi, c.writes.first()) && c.lib.k.LiveProcs() != 0 {
			c.writes.nacked(c.q.sqi)
			c.lib.k.AfterFunc(RetryBackoffCycles, c.stepFn, coWriteReplay)
			return
		}
		c.writes.retire()
		if c.writes.next() {
			c.sendWrite()
		}
	case coWriteReplay:
		c.sendWrite()
	}
}

// sendWrite puts the head vl_fetch write on the bus.
func (c *Consumer) sendWrite() {
	c.lib.bus.SendFunc(noc.PktFetchReq, c.stepFn, coWriteArrived)
}

// fetchLoop posts the demand requests owed before the pop may complete
// ("ensure the k-th fill has a request" — the unguided prerequest of
// §4.2), one vl_select+vl_fetch pair per iteration, then falls into the
// line-wait loop.
func (c *Consumer) fetchLoop() {
	if c.postedCount <= c.popped {
		c.lib.k.AfterFunc(config.VLSelectCycles, c.stepFn, coFetchSel)
		return
	}
	c.await()
}

// issueFetch queues the next request of the endpoint's round-robin
// request stream once its vl_select and vl_fetch cycles are charged:
// vl_fetch writes the selected line's physical address to the
// device-memory range of consBuf. Posted, like vl_push.
func (c *Consumer) issueFetch() {
	i := int(c.postedCount) % len(c.page.Lines)
	if c.writes.add(c.page.Lines[i].Addr) {
		c.sendWrite()
	}
	c.postedCount++
	if c.probe != nil {
		c.probe.Fetch(c.q, c.id, i, c.lib.k.Now())
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
	c.msg, c.ok = c.line.Take(), true
	c.popped++
	if c.probe != nil {
		c.probe.Pop(c.q, c.id, c.lineIndex(c.line), c.lib.k.Now(), c.msg)
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
