package vlq

import (
	"testing"

	"spamer/internal/config"
	"spamer/internal/core"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/vl"
)

// rig assembles the full device stack with an optional spec extension.
type rig struct {
	k   *sim.Kernel
	lib *Lib
	dev *vl.Device
}

func newRig(spec bool) *rig {
	if spec {
		return newRigWith(vl.Config{}, core.NewSpecBuf(0, core.ZeroDelay{}))
	}
	return newRigWith(vl.Config{}, nil)
}

// newRigWith assembles the stack over a device with the given table
// sizes and, unless ext is nil, spec extension.
func newRigWith(cfg vl.Config, ext vl.SpecExtension) *rig {
	k := sim.New()
	k.SetDeadline(1 << 32)
	bus := noc.New(k)
	as := mem.NewAddressSpace(k)
	dev := vl.New(k, bus, as, cfg)
	if ext != nil {
		dev.SetSpecExtension(ext)
	}
	lib := New(k, bus, as, dev)
	lib.Inlined = true
	return &rig{k: k, lib: lib, dev: dev}
}

// op is one operation of a scripted test thread: it starts an endpoint
// operation with next as its continuation, or calls next itself.
type op = func(next sim.Cont)

// script spawns a thread (sim.Task) that runs ops in order, each
// continuing when its operation completes, and exits after the last.
func script(k *sim.Kernel, name string, ops ...op) *sim.Task {
	var task *sim.Task
	var step func(uint64)
	step = func(i uint64) {
		if i == uint64(len(ops)) {
			task.Exit()
			return
		}
		ops[i](sim.Cont{Fn: step, Arg: i + 1})
	}
	task = k.GoFunc(name, step, 0)
	return task
}

// do is the op that runs f.
func do(f func()) op { return func(next sim.Cont) { f(); next.Call() } }

// times is the op that runs body(i, next) for i = 0, ..., n-1 in turn.
func times(n int, body func(i int, next sim.Cont)) op {
	return func(next sim.Cont) {
		var step func(uint64)
		step = func(i uint64) {
			if i == uint64(n) {
				next.Call()
				return
			}
			body(int(i), sim.Cont{Fn: step, Arg: i + 1})
		}
		step(0)
	}
}

// open is the op that opens a consumer endpoint with n lines on q into
// *c.
func open(q *Queue, n int, c **Consumer) op {
	return func(next sim.Cont) {
		var pending bool
		if *c, pending = q.NewConsumerThen(n, next); !pending {
			next.Call()
		}
	}
}

// prefetch is the op that prefetches on *c.
func prefetch(c **Consumer) op {
	return func(next sim.Cont) {
		if !(*c).PrefetchThen(next) {
			next.Call()
		}
	}
}

// pushes spawns a thread that opens a producer endpoint on q and pushes
// vals(i) for i = 0, ..., n-1.
func pushes(k *sim.Kernel, q *Queue, n int, vals func(i int) uint64) {
	var pr *Producer
	script(k, "producer", do(func() { pr = q.NewProducer(0) }),
		times(n, func(i int, next sim.Cont) { pr.PushThen(vals(i), next) }))
}

// pops spawns a thread that opens a consumer endpoint with lines lines
// on q and pops n messages, handing each to got.
func pops(k *sim.Kernel, q *Queue, lines, n int, got func(mem.Message)) {
	var c *Consumer
	script(k, "consumer", open(q, lines, &c), times(n, func(_ int, next sim.Cont) {
		c.PopThen(sim.Cont{Fn: func(arg uint64) {
			m, _ := c.Result()
			got(m)
			next.Fn(arg)
		}, Arg: next.Arg})
	}))
}

func index(i int) uint64 { return uint64(i) }

func TestPushPopRoundTrip(t *testing.T) {
	for _, spec := range []bool{false, true} {
		r := newRig(spec)
		q := r.lib.NewQueue("q", nil)
		const n = 50
		pushes(r.k, q, n, func(i int) uint64 { return uint64(i * 3) })
		var got []uint64
		pops(r.k, q, 2, n, func(m mem.Message) { got = append(got, m.Payload) })
		r.k.Run()
		if len(got) != n {
			t.Fatalf("spec=%v: popped %d", spec, len(got))
		}
		for i, v := range got {
			if v != uint64(i*3) {
				t.Fatalf("spec=%v: got[%d] = %d", spec, i, v)
			}
		}
		if q.Pushed() != n || q.Popped() != n {
			t.Fatalf("spec=%v: counters %d/%d", spec, q.Pushed(), q.Popped())
		}
	}
}

func TestProducerWindowBlocks(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q", nil)
	var pushDone uint64
	var pr *Producer
	script(r.k, "producer",
		do(func() { pr = q.NewProducer(2) }),
		times(10, func(i int, next sim.Cont) { pr.PushThen(uint64(i), next) }),
		do(func() { pushDone = r.k.Now() }))
	r.k.Run()
	// With window 2 and accept latency ~15 cycles, 10 pushes cannot all
	// be issued back-to-back; the producer must have stalled.
	minSerial := uint64(10 * (config.InlineOverheadCycles + config.VLSelectCycles + config.VLPushCycles))
	if pushDone <= minSerial {
		t.Fatalf("10 windowed pushes finished at %d; window did not throttle", pushDone)
	}
}

func TestSpecConsumerNeverFetches(t *testing.T) {
	r := newRig(true)
	q := r.lib.NewQueue("q", nil)
	pushes(r.k, q, 20, index)
	var c *Consumer
	script(r.k, "consumer", open(q, 2, &c),
		prefetch(&c), // must be a no-op
		times(20, func(_ int, next sim.Cont) { c.PopThen(next) }))
	r.k.Run()
	if f := r.dev.Stats().Fetches; f != 0 {
		t.Fatalf("spec consumer issued %d fetches", f)
	}
	if r.dev.Stats().Registers != 1 {
		t.Fatalf("registers = %d", r.dev.Stats().Registers)
	}
}

func TestDemandConsumerRequestStreamRoundRobin(t *testing.T) {
	r := newRig(false)
	rec := &recorder{}
	q := r.lib.NewQueue("q", rec)
	pushes(r.k, q, 9, index)
	var c *Consumer
	script(r.k, "consumer", open(q, 3, &c),
		times(9, func(_ int, next sim.Cont) { c.PopThen(next) }))
	r.k.Run()
	fetchLines := rec.lines("fetch")
	if len(fetchLines) != 9 {
		t.Fatalf("fetches = %d", len(fetchLines))
	}
	for i, l := range fetchLines {
		if l != i%3 {
			t.Fatalf("fetch %d targeted line %d, want %d (strict round-robin)", i, l, i%3)
		}
	}
}

func TestPrefetchBoundedByLines(t *testing.T) {
	r := newRig(false)
	rec := &recorder{}
	q := r.lib.NewQueue("q", rec)
	var c *Consumer
	// Prefetch many times with no fills: at most one outstanding
	// request per line is allowed.
	ops := []op{open(q, 2, &c)}
	for i := 0; i < 10; i++ {
		ops = append(ops, prefetch(&c))
	}
	script(r.k, "consumer", ops...)
	r.k.Run()
	if fetches := len(rec.lines("fetch")); fetches != 2 {
		t.Fatalf("fetches = %d, want 2 (one per line)", fetches)
	}
}

// probeEvent is one Probe call a recorder saw.
type probeEvent struct {
	kind     string // push, accept, fetch, fill or pop
	endpoint int    // producer or consumer index on the queue
	line     int    // consumer line index; -1 for producer events
	tick     uint64
	seq      uint64 // message sequence; 0 for fetch
}

// recorder is a Probe that logs every call in order.
type recorder struct{ events []probeEvent }

func (r *recorder) Push(_ *Queue, p int, tick uint64, m mem.Message) {
	r.events = append(r.events, probeEvent{"push", p, -1, tick, m.Seq})
}

func (r *recorder) Accept(_ *Queue, p int, tick, seq uint64) {
	r.events = append(r.events, probeEvent{"accept", p, -1, tick, seq})
}

func (r *recorder) Fetch(_ *Queue, c, line int, tick uint64) {
	r.events = append(r.events, probeEvent{"fetch", c, line, tick, 0})
}

func (r *recorder) Fill(_ *Queue, c, line int, tick uint64, m mem.Message) {
	r.events = append(r.events, probeEvent{"fill", c, line, tick, m.Seq})
}

func (r *recorder) Pop(_ *Queue, c, line int, tick uint64, m mem.Message) {
	r.events = append(r.events, probeEvent{"pop", c, line, tick, m.Seq})
}

// of returns the recorded events of one kind, in order.
func (r *recorder) of(kind string) []probeEvent {
	var out []probeEvent
	for _, e := range r.events {
		if e.kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// lines returns the line indices of the recorded events of one kind.
func (r *recorder) lines(kind string) []int {
	var out []int
	for _, e := range r.of(kind) {
		out = append(out, e.line)
	}
	return out
}

// TestProbeSeesEveryEndpointEvent: on both device flavours, a probe
// fixed at NewQueue sees each message pushed, accepted, filled into the
// consumer line that pops it, and popped, in that order in time; a
// demand endpoint's requests are seen too, and a spec endpoint makes
// none. The probe changes nothing: the run ends at the same tick as an
// unprobed one.
func TestProbeSeesEveryEndpointEvent(t *testing.T) {
	const n, lines = 12, 3
	for _, spec := range []bool{false, true} {
		run := func(p Probe) uint64 {
			r := newRig(spec)
			q := r.lib.NewQueue("q", p)
			pushes(r.k, q, n, index)
			pops(r.k, q, lines, n, func(mem.Message) {})
			r.k.Run()
			return r.k.Now()
		}
		rec := &recorder{}
		if probed, plain := run(rec), run(nil); probed != plain {
			t.Fatalf("spec=%v: probed run ended at tick %d, unprobed at %d", spec, probed, plain)
		}
		push, accept, fill, pop := rec.of("push"), rec.of("accept"), rec.of("fill"), rec.of("pop")
		if len(push) != n || len(accept) != n || len(fill) != n || len(pop) != n {
			t.Fatalf("spec=%v: %d pushes, %d accepts, %d fills, %d pops; want %d each",
				spec, len(push), len(accept), len(fill), len(pop), n)
		}
		for i := 0; i < n; i++ {
			seq := uint64(i)
			if push[i].seq != seq || accept[i].seq != seq || fill[i].seq != seq || pop[i].seq != seq {
				t.Fatalf("spec=%v: message %d seen as push %d, accept %d, fill %d, pop %d",
					spec, i, push[i].seq, accept[i].seq, fill[i].seq, pop[i].seq)
			}
			if !(push[i].tick < accept[i].tick && accept[i].tick < fill[i].tick && fill[i].tick < pop[i].tick) {
				t.Fatalf("spec=%v: message %d at push %d, accept %d, fill %d, pop %d; want increasing",
					spec, i, push[i].tick, accept[i].tick, fill[i].tick, pop[i].tick)
			}
			if fill[i].line != i%lines || pop[i].line != i%lines {
				t.Fatalf("spec=%v: message %d filled line %d, popped from line %d; want %d",
					spec, i, fill[i].line, pop[i].line, i%lines)
			}
		}
		if fetches := len(rec.of("fetch")); spec && fetches != 0 || !spec && fetches != n {
			t.Fatalf("spec=%v: %d fetches", spec, fetches)
		}
	}
}

// The two PopOrDone tests keep the names of the op whose wait-for-data-
// or-done paths WorkCounter.Take now runs.

// take is the op that takes from wc on *c and hands the outcome to got.
func take(wc *WorkCounter, c **Consumer, got func(mem.Message, bool)) op {
	return func(next sim.Cont) {
		if !wc.TakeThen(*c, sim.Cont{Fn: func(arg uint64) {
			got((*c).Result())
			next.Fn(arg)
		}, Arg: next.Arg}) {
			got(mem.Message{}, false)
			next.Call()
		}
	}
}

// TestPopOrDoneReleasesOnDone: two consumers share a count of one. One
// takes the message; the other, left waiting on an empty line, is
// released with ok=false when the count runs out.
func TestPopOrDoneReleasesOnDone(t *testing.T) {
	for _, spec := range []bool{false, true} {
		r := newRig(spec)
		q := r.lib.NewQueue("q", nil)
		wc := NewWorkCounter("jobs", 1)
		pushes(r.k, q, 1, func(int) uint64 { return 7 })
		var got []uint64
		released := 0
		for i := 0; i < 2; i++ {
			var c *Consumer
			script(r.k, "consumer", open(q, 2, &c), take(wc, &c, func(m mem.Message, ok bool) {
				if ok {
					got = append(got, m.Payload)
				} else {
					released++
				}
			}))
		}
		r.k.Run()
		if len(got) != 1 || got[0] != 7 || released != 1 {
			t.Fatalf("spec=%v: took %v, released %d; want [7] and 1", spec, got, released)
		}
		if wc.Remaining() != 0 || r.k.LiveProcs() != 0 {
			t.Fatalf("spec=%v: remaining %d, live %d", spec, wc.Remaining(), r.k.LiveProcs())
		}
	}
}

// TestPopOrDoneDeliversFirst: a Take waiting on an empty line while the
// count has not run out delivers the message when it arrives; a Take
// on the exhausted count then returns ok=false at once.
func TestPopOrDoneDeliversFirst(t *testing.T) {
	for _, spec := range []bool{false, true} {
		r := newRig(spec)
		q := r.lib.NewQueue("q", nil)
		wc := NewWorkCounter("jobs", 1)
		var pr *Producer
		script(r.k, "producer",
			func(next sim.Cont) { r.k.AfterFunc(500, next.Fn, next.Arg) },
			do(func() { pr = q.NewProducer(0) }),
			func(next sim.Cont) { pr.PushThen(7, next) })
		var got uint64
		var ok, again bool
		var at, after uint64
		var c *Consumer
		script(r.k, "consumer", open(q, 2, &c),
			take(wc, &c, func(m mem.Message, took bool) { got, ok, at = m.Payload, took, r.k.Now() }),
			take(wc, &c, func(_ mem.Message, took bool) { again, after = took, r.k.Now() }))
		r.k.Run()
		if !ok || got != 7 || at < 500 {
			t.Fatalf("spec=%v: Take = %v, %d at tick %d; want true, 7 after tick 500", spec, ok, got, at)
		}
		if again || after != at {
			t.Fatalf("spec=%v: Take on exhausted count = %v at tick %d; want false at tick %d", spec, again, after, at)
		}
		if wc.Remaining() != 0 || r.k.LiveProcs() != 0 {
			t.Fatalf("spec=%v: remaining %d, live %d", spec, wc.Remaining(), r.k.LiveProcs())
		}
	}
}

func TestInlineOverheadDifference(t *testing.T) {
	run := func(inlined bool) uint64 {
		r := newRig(false)
		r.lib.Inlined = inlined
		q := r.lib.NewQueue("q", nil)
		var end uint64
		pushes(r.k, q, 20, index)
		pops(r.k, q, 2, 20, func(mem.Message) { end = r.k.Now() })
		r.k.Run()
		return end
	}
	if inl, call := run(true), run(false); inl >= call {
		t.Fatalf("inlined %d not faster than called %d", inl, call)
	}
}

func TestEvictedLineRecovery(t *testing.T) {
	r := newRig(true)
	q := r.lib.NewQueue("q", nil)
	var consumer *Consumer
	var got []uint64
	script(r.k, "consumer", open(q, 2, &consumer), times(10, func(_ int, next sim.Cont) {
		consumer.PopThen(sim.Cont{Fn: func(arg uint64) {
			m, _ := consumer.Result()
			got = append(got, m.Seq)
			next.Fn(arg)
		}, Arg: next.Arg})
	}))
	var pr *Producer
	script(r.k, "producer", do(func() { pr = q.NewProducer(0) }), times(10, func(i int, next sim.Cont) {
		r.k.AfterFunc(50, func(uint64) { pr.PushThen(uint64(i), next) }, 0)
	}))
	// Failure injection: periodically evict the consumer's lines.
	for _, tick := range []uint64{120, 260, 400} {
		tick := tick
		r.k.AtFunc(tick, func(uint64) {
			for _, l := range consumer.Lines() {
				l.Evict()
			}
		}, 0)
	}
	r.k.Run()
	if len(got) != 10 {
		t.Fatalf("popped %d", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("got[%d] = %d (FIFO broken by eviction)", i, s)
		}
	}
}

func TestQueueNamesAndSQIs(t *testing.T) {
	r := newRig(false)
	a := r.lib.NewQueue("alpha", nil)
	b := r.lib.NewQueue("beta", nil)
	if a.Name() != "alpha" || b.Name() != "beta" {
		t.Fatal("names lost")
	}
	if a.SQI() == b.SQI() {
		t.Fatal("duplicate SQI")
	}
	if len(r.lib.Queues()) != 2 {
		t.Fatalf("queues = %d", len(r.lib.Queues()))
	}
}

func TestQueueCloseLifecycle(t *testing.T) {
	r := newRig(true)
	q := r.lib.NewQueue("q", nil)
	pushes(r.k, q, 10, index)
	pops(r.k, q, 2, 10, func(mem.Message) {})
	r.k.Run()
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if err := q.Close(); err == nil {
		t.Fatal("double Close succeeded")
	}
	// The SQI and its specBuf entry are recycled: a fresh queue and
	// spec-enabled consumer must work.
	q2 := r.lib.NewQueue("q2", nil)
	if q2.SQI() != q.SQI() {
		t.Fatalf("SQI not recycled: %d vs %d", q2.SQI(), q.SQI())
	}
	var c *Consumer
	var pr *Producer
	script(r.k, "again", open(q2, 2, &c),
		do(func() { pr = q2.NewProducer(0) }),
		func(next sim.Cont) { pr.PushThen(99, next) },
		func(next sim.Cont) { c.PopThen(next) },
		do(func() {
			if m, _ := c.Result(); m.Payload != 99 {
				t.Errorf("payload = %d", m.Payload)
			}
		}))
	r.k.Run()
}

func TestQueueCloseUndrained(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q", nil)
	pushes(r.k, q, 1, index)
	r.k.Run()
	if err := q.Close(); err == nil {
		t.Fatal("Close succeeded with undelivered data")
	}
}

func TestQueueCloseFlushesPrerequests(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q", nil)
	var c *Consumer
	script(r.k, "consumer", open(q, 2, &c), prefetch(&c)) // dangling request, never answered
	r.k.Run()
	if err := q.Close(); err != nil {
		t.Fatalf("Close with dangling prerequest: %v", err)
	}
	if r.dev.FreeConsEntries() != 64 {
		t.Fatalf("consBuf entry leaked: %d free", r.dev.FreeConsEntries())
	}
}

func TestPushOnClosedQueuePanics(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q", nil)
	var pr *Producer
	script(r.k, "setup", do(func() { pr = q.NewProducer(0) }))
	r.k.Run()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover inside the step: uncaught, the panic would unwind through
	// Kernel.Run and fail the test instead of being checked here.
	script(r.k, "late", func(next sim.Cont) {
		defer func() {
			if recover() == nil {
				t.Error("Push on closed queue did not panic")
			}
			next.Call()
		}()
		pr.PushThen(1, next)
	})
	r.k.Run()
}

// TestConsumerOpsOnClosedQueuePanic: Close returns the SQI to the
// device and the next NewQueue recycles it, so a consumer operation on
// the closed queue must panic rather than request, or take, the new
// queue's messages.
func TestConsumerOpsOnClosedQueuePanic(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q", nil)
	var c *Consumer
	script(r.k, "setup", open(q, 2, &c))
	r.k.Run()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := r.lib.NewQueue("q2", nil)
	if q2.SQI() != q.SQI() {
		t.Fatalf("SQI not recycled: %d vs %d", q2.SQI(), q.SQI())
	}
	pushes(r.k, q2, 1, func(int) uint64 { return 77 })
	r.k.Run()
	var fresh *Consumer
	ops := []struct {
		name string
		op   op
	}{
		{"Pop", func(next sim.Cont) { c.PopThen(next) }},
		{"Take", func(next sim.Cont) { NewWorkCounter("w", 1).TakeThen(c, next) }},
		{"Prefetch", prefetch(&c)},
		{"NewConsumer", open(q, 2, &fresh)},
		{"NewProducer", do(func() { q.NewProducer(0) })},
	}
	for _, o := range ops {
		// Recover inside the step: uncaught, the panic would unwind
		// through Kernel.Run and fail the test instead of being checked.
		script(r.k, "late", func(next sim.Cont) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on closed queue did not panic", o.name)
				}
				next.Call()
			}()
			o.op(sim.Cont{Fn: func(uint64) {}})
		})
		r.k.Run()
	}
	if n := q.Popped(); n != 0 {
		t.Fatalf("the closed queue's consumer took %d message(s) pushed on the queue that reuses its SQI", n)
	}
}
