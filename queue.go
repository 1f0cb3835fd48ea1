package spamer

import (
	"spamer/internal/mem"
	"spamer/internal/sim"
	"spamer/internal/vlq"
)

// Queue is one M:N message channel (one Shared Queue Identifier).
// Producers and consumers subscribe endpoints to it; the paper writes the
// shape as (M:N)xk in Table 2.
type Queue struct {
	sys   *System
	inner *vlq.Queue
}

// NewQueue creates a message channel. On multi-device systems queues
// are placed round-robin across the routing devices.
func (s *System) NewQueue(name string) *Queue {
	lib := s.libs[s.nextDev%len(s.libs)]
	s.nextDev++
	q := &Queue{sys: s, inner: lib.NewQueue(name)}
	if s.queueProbe != nil {
		q.inner.SetProbe(s.queueProbe)
	}
	s.queues = append(s.queues, q)
	return q
}

// Queues returns every queue created on the system.
func (s *System) Queues() []*Queue { return s.queues }

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.inner.Name() }

// Pushed reports messages accepted from producers so far.
func (q *Queue) Pushed() uint64 { return q.inner.Pushed() }

// Popped reports messages delivered to consumers so far.
func (q *Queue) Popped() uint64 { return q.inner.Popped() }

// Close tears the queue down once drained, returning its SQI and
// specBuf entries to the device. See vlq.Queue.Close.
func (q *Queue) Close() error { return q.inner.Close() }

// Inner exposes the library-level queue for tracing and tests.
func (q *Queue) Inner() *vlq.Queue { return q.inner }

// handleBlock sizes the System's endpoint-handle arenas: handles live
// in block storage, like the vlq endpoints they wrap, so opening an
// endpoint costs no heap object of its own.
const handleBlock = 16

// nextHandle returns a zeroed handle from the arena. Blocks are
// replaced when full, never grown in place, so handed-out pointers
// stay valid.
func nextHandle[T any](arena *[]T) *T {
	if len(*arena) == cap(*arena) {
		*arena = make([]T, 0, handleBlock)
	}
	*arena = (*arena)[:len(*arena)+1]
	return &(*arena)[len(*arena)-1]
}

// Producer is a producer endpoint handle.
type Producer struct {
	inner *vlq.Producer
}

// NewProducer subscribes a producer endpoint. window bounds in-flight
// pushes (0 = default).
func (q *Queue) NewProducer(window int) *Producer {
	pr := nextHandle(&q.sys.prodArena)
	pr.inner = q.inner.NewProducer(window)
	return pr
}

// Push enqueues one message, charging the calling thread the library and
// ISA costs, blocking only on the endpoint's line window.
func (pr *Producer) Push(p *sim.Proc, payload uint64) { pr.inner.Push(p, payload) }

// PushThen is Push for a process-free thread (System.SpawnFunc): it
// returns at once, and then runs where Push would return.
func (pr *Producer) PushThen(payload uint64, then sim.Cont) { pr.inner.PushThen(payload, then) }

// PushAfter charges the calling thread d cycles of compute and then
// pushes payload — trace-identical to Compute(d) followed by Push, with
// one scheduler round trip instead of two. Use it for the ubiquitous
// produce-loop shape `Compute(work); Push(msg)`.
func (pr *Producer) PushAfter(p *sim.Proc, d uint64, payload uint64) {
	pr.inner.PushAfter(p, d, payload)
}

// PushAfterThen is PushAfter for a process-free thread: it returns at
// once, and then runs where PushAfter would return.
func (pr *Producer) PushAfterThen(d, payload uint64, then sim.Cont) {
	pr.inner.PushAfterThen(d, payload, then)
}

// Sent reports how many messages this endpoint has pushed.
func (pr *Producer) Sent() uint64 { return pr.inner.Seq() }

// Inner exposes the library-level producer for tracing and tests.
func (pr *Producer) Inner() *vlq.Producer { return pr.inner }

// Consumer is a consumer endpoint handle.
type Consumer struct {
	inner *vlq.Consumer

	// In-flight WorkCounter.TakeThen state: the counter, the caller's
	// continuation, and the bookkeeping step, bound on first use.
	wc     *WorkCounter
	then   sim.Cont
	tookFn func(uint64)
}

// NewConsumer subscribes a consumer endpoint with nlines buffer lines.
// Under a SPAMeR system the endpoint is created spec-push-enabled (the
// library issues spamer_register, §3.4); under the VL baseline it is
// demand-driven. Use NewConsumerLegacy to force a demand-driven endpoint
// on a SPAMeR system (§3.4's "legacy option").
func (q *Queue) NewConsumer(p *sim.Proc, nlines int) *Consumer {
	c := nextHandle(&q.sys.consArena)
	c.inner = q.inner.NewConsumer(p, nlines, q.sys.Speculative())
	return c
}

// NewConsumerThen is NewConsumer for a process-free thread. When the
// endpoint registers (a SPAMeR system) it returns pending = true and
// then runs once registration has been charged; otherwise it schedules
// nothing and then never runs.
func (q *Queue) NewConsumerThen(nlines int, then sim.Cont) (c *Consumer, pending bool) {
	c = nextHandle(&q.sys.consArena)
	c.inner, pending = q.inner.NewConsumerThen(nlines, q.sys.Speculative(), then)
	return c, pending
}

// NewConsumerLegacy subscribes a demand-driven endpoint regardless of the
// system flavour.
func (q *Queue) NewConsumerLegacy(p *sim.Proc, nlines int) *Consumer {
	c := nextHandle(&q.sys.consArena)
	c.inner = q.inner.NewConsumer(p, nlines, false)
	return c
}

// Pop dequeues one message, blocking until available.
func (c *Consumer) Pop(p *sim.Proc) mem.Message { return c.inner.Pop(p) }

// PopThen is Pop for a process-free thread: then runs where Pop would
// return, and Result reports the message.
func (c *Consumer) PopThen(then sim.Cont) { c.inner.PopThen(then) }

// Result reports the outcome of the endpoint's last completed pop (Pop,
// TryPop, PopOrDone or a WorkCounter Take): the message and whether one
// was taken.
func (c *Consumer) Result() (mem.Message, bool) { return c.inner.Result() }

// Prefetch posts a demand request for the endpoint's next line ahead of
// the Pop that will consume it (no-op on spec-enabled endpoints). See
// vlq.Consumer.Prefetch.
func (c *Consumer) Prefetch(p *sim.Proc) { c.inner.Prefetch(p) }

// PrefetchThen is Prefetch for a process-free thread. On a spec-enabled
// endpoint it schedules nothing, returns false, and then never runs;
// otherwise it returns true and then runs where Prefetch would return.
func (c *Consumer) PrefetchThen(then sim.Cont) bool { return c.inner.PrefetchThen(then) }

// TryPop dequeues only if a message is immediately available.
func (c *Consumer) TryPop(p *sim.Proc) (mem.Message, bool) { return c.inner.TryPop(p) }

// PopOrDone dequeues like Pop but gives up (ok=false) once the done
// signal fires with isDone true. See WorkCounter for the common usage.
func (c *Consumer) PopOrDone(p *sim.Proc, done *sim.Signal, isDone func() bool) (mem.Message, bool) {
	return c.inner.PopOrDone(p, done, isDone)
}

// WorkCounter coordinates multiple consumers draining a fixed global
// message count from one queue when the per-consumer share is not known
// statically (M:N queues under speculative rotation deliver
// approximately, not exactly, evenly). The consumer that takes the last
// message wakes every sibling still blocked.
type WorkCounter struct {
	name      string
	remaining int
	done      sim.Signal
	isDone    func() bool // bound once: a pop keeps it until it completes
}

// NewWorkCounter returns a counter for total messages.
func NewWorkCounter(name string, total int) *WorkCounter {
	wc := &WorkCounter{name: name, remaining: total}
	wc.isDone = func() bool { return wc.remaining == 0 }
	return wc
}

// Name reports the counter's diagnostic name.
func (wc *WorkCounter) Name() string { return wc.name }

// Remaining reports undelivered messages.
func (wc *WorkCounter) Remaining() int { return wc.remaining }

// Take pops one message from c, or returns ok=false when the global
// count is exhausted.
func (wc *WorkCounter) Take(c *Consumer, p *sim.Proc) (mem.Message, bool) {
	if wc.remaining == 0 {
		return mem.Message{}, false
	}
	m, ok := c.PopOrDone(p, &wc.done, wc.isDone)
	if ok {
		wc.took()
	}
	return m, ok
}

// TakeThen is Take for a process-free thread. When the count is already
// exhausted it schedules nothing, returns false, and then never runs;
// otherwise then runs where Take would return, and c.Result reports the
// outcome.
func (wc *WorkCounter) TakeThen(c *Consumer, then sim.Cont) bool {
	if wc.remaining == 0 {
		return false
	}
	if c.tookFn == nil {
		c.tookFn = c.took
	}
	c.wc, c.then = wc, then
	c.inner.PopOrDoneThen(&wc.done, wc.isDone, sim.Cont{Fn: c.tookFn})
	return true
}

// took counts one taken message, waking the blocked siblings once the
// count is exhausted.
func (wc *WorkCounter) took() {
	wc.remaining--
	if wc.remaining == 0 {
		wc.done.Fire()
	}
}

// took completes a TakeThen: the counter's bookkeeping runs before the
// caller's continuation, where Take would do it before returning.
func (c *Consumer) took(uint64) {
	if _, ok := c.inner.Result(); ok {
		c.wc.took()
	}
	c.then.Call()
}

// SpecEnabled reports whether the endpoint receives speculative pushes.
func (c *Consumer) SpecEnabled() bool { return c.inner.SpecEnabled() }

// Lines exposes the endpoint's cache lines (stats/tracing).
func (c *Consumer) Lines() []*mem.Line { return c.inner.Lines() }

// Inner exposes the library-level consumer for tracing and tests.
func (c *Consumer) Inner() *vlq.Consumer { return c.inner }
