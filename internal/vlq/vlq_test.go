package vlq

import (
	"testing"

	"spamer/internal/config"
	"spamer/internal/core"
	"spamer/internal/isa"
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
	k := sim.New()
	k.SetDeadline(1 << 32)
	bus := noc.New(k)
	as := mem.NewAddressSpace(k)
	dev := vl.New(k, bus, as, vl.Config{})
	if spec {
		dev.SetSpecExtension(core.NewSpecBuf(0, core.ZeroDelay{}))
	}
	i := isa.New(k, bus, dev)
	lib := New(k, as, dev, i)
	lib.Inlined = true
	return &rig{k: k, lib: lib, dev: dev}
}

func TestPushPopRoundTrip(t *testing.T) {
	for _, spec := range []bool{false, true} {
		r := newRig(spec)
		q := r.lib.NewQueue("q")
		const n = 50
		r.k.Go("producer", func(p *sim.Proc) {
			pr := q.NewProducer(0)
			for i := 0; i < n; i++ {
				pr.Push(p, uint64(i*3))
			}
		})
		var got []uint64
		r.k.Go("consumer", func(p *sim.Proc) {
			c := q.NewConsumer(p, 2)
			for i := 0; i < n; i++ {
				got = append(got, c.Pop(p).Payload)
			}
		})
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
	q := r.lib.NewQueue("q")
	var pushDone uint64
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(2)
		for i := 0; i < 10; i++ {
			pr.Push(p, uint64(i))
		}
		pushDone = p.Now()
	})
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
	q := r.lib.NewQueue("q")
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		for i := 0; i < 20; i++ {
			pr.Push(p, uint64(i))
		}
	})
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2)
		c.Prefetch(p) // must be a no-op
		for i := 0; i < 20; i++ {
			c.Pop(p)
		}
	})
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
	q := r.lib.NewQueue("q")
	var fetchLines []int
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		for i := 0; i < 9; i++ {
			pr.Push(p, uint64(i))
		}
	})
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 3)
		c.OnFetch = func(tick uint64, lineIdx int) { fetchLines = append(fetchLines, lineIdx) }
		for i := 0; i < 9; i++ {
			c.Pop(p)
		}
	})
	r.k.Run()
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
	q := r.lib.NewQueue("q")
	fetches := 0
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2)
		c.OnFetch = func(uint64, int) { fetches++ }
		// Prefetch many times with no fills: at most one outstanding
		// request per line is allowed.
		for i := 0; i < 10; i++ {
			c.Prefetch(p)
		}
	})
	r.k.Run()
	if fetches != 2 {
		t.Fatalf("fetches = %d, want 2 (one per line)", fetches)
	}
}

// The two PopOrDone tests keep the names of the op whose wait-for-data-
// or-done paths WorkCounter.Take now runs.

// TestPopOrDoneReleasesOnDone: two consumers share a count of one. One
// takes the message; the other, left waiting on an empty line, is
// released with ok=false when the count runs out.
func TestPopOrDoneReleasesOnDone(t *testing.T) {
	for _, spec := range []bool{false, true} {
		r := newRig(spec)
		q := r.lib.NewQueue("q")
		wc := NewWorkCounter("jobs", 1)
		r.k.Go("producer", func(p *sim.Proc) { q.NewProducer(0).Push(p, 7) })
		var got []uint64
		released := 0
		for i := 0; i < 2; i++ {
			r.k.Go("consumer", func(p *sim.Proc) {
				c := q.NewConsumer(p, 2)
				if m, ok := wc.Take(c, p); ok {
					got = append(got, m.Payload)
				} else {
					released++
				}
			})
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
		q := r.lib.NewQueue("q")
		wc := NewWorkCounter("jobs", 1)
		r.k.Go("producer", func(p *sim.Proc) {
			p.Sleep(500)
			q.NewProducer(0).Push(p, 7)
		})
		var got uint64
		var ok, again bool
		var at, after uint64
		r.k.Go("consumer", func(p *sim.Proc) {
			c := q.NewConsumer(p, 2)
			var m mem.Message
			m, ok = wc.Take(c, p)
			got, at = m.Payload, p.Now()
			_, again = wc.Take(c, p)
			after = p.Now()
		})
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
		q := r.lib.NewQueue("q")
		var end uint64
		r.k.Go("producer", func(p *sim.Proc) {
			pr := q.NewProducer(0)
			for i := 0; i < 20; i++ {
				pr.Push(p, uint64(i))
			}
		})
		r.k.Go("consumer", func(p *sim.Proc) {
			c := q.NewConsumer(p, 2)
			for i := 0; i < 20; i++ {
				c.Pop(p)
			}
			end = p.Now()
		})
		r.k.Run()
		return end
	}
	if inl, call := run(true), run(false); inl >= call {
		t.Fatalf("inlined %d not faster than called %d", inl, call)
	}
}

func TestEvictedLineRecovery(t *testing.T) {
	r := newRig(true)
	q := r.lib.NewQueue("q")
	var consumer *Consumer
	var got []uint64
	r.k.Go("consumer", func(p *sim.Proc) {
		consumer = q.NewConsumer(p, 2)
		for i := 0; i < 10; i++ {
			got = append(got, consumer.Pop(p).Seq)
		}
	})
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		for i := 0; i < 10; i++ {
			p.Sleep(50)
			pr.Push(p, uint64(i))
		}
	})
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
	a := r.lib.NewQueue("alpha")
	b := r.lib.NewQueue("beta")
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
	q := r.lib.NewQueue("q")
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		for i := 0; i < 10; i++ {
			pr.Push(p, uint64(i))
		}
	})
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2)
		for i := 0; i < 10; i++ {
			c.Pop(p)
		}
	})
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
	q2 := r.lib.NewQueue("q2")
	if q2.SQI() != q.SQI() {
		t.Fatalf("SQI not recycled: %d vs %d", q2.SQI(), q.SQI())
	}
	r.k.Go("again", func(p *sim.Proc) {
		c := q2.NewConsumer(p, 2)
		pr := q2.NewProducer(0)
		pr.Push(p, 99)
		if m := c.Pop(p); m.Payload != 99 {
			t.Errorf("payload = %d", m.Payload)
		}
	})
	r.k.Run()
}

func TestQueueCloseUndrained(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q")
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		pr.Push(p, 1)
	})
	r.k.Run()
	if err := q.Close(); err == nil {
		t.Fatal("Close succeeded with undelivered data")
	}
}

func TestQueueCloseFlushesPrerequests(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q")
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2)
		c.Prefetch(p) // dangling request, never answered
	})
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
	q := r.lib.NewQueue("q")
	var pr *Producer
	r.k.Go("setup", func(p *sim.Proc) { pr = q.NewProducer(0) })
	r.k.Run()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover inside the body: uncaught, the panic would unwind through
	// Kernel.Run and fail the test instead of being checked here.
	r.k.Go("late", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Push on closed queue did not panic")
			}
		}()
		pr.Push(p, 1)
	})
	r.k.Run()
}

// TestConsumerOpsOnClosedQueuePanic: Close returns the SQI to the
// device and the next NewQueue recycles it, so a consumer operation on
// the closed queue must panic rather than request, or take, the new
// queue's messages.
func TestConsumerOpsOnClosedQueuePanic(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q")
	var c *Consumer
	r.k.Go("setup", func(p *sim.Proc) { c = q.NewConsumer(p, 2) })
	r.k.Run()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := r.lib.NewQueue("q2")
	if q2.SQI() != q.SQI() {
		t.Fatalf("SQI not recycled: %d vs %d", q2.SQI(), q.SQI())
	}
	r.k.Go("producer", func(p *sim.Proc) { q2.NewProducer(0).Push(p, 77) })
	r.k.Run()
	ops := []struct {
		name string
		op   func(p *sim.Proc)
	}{
		{"Pop", func(p *sim.Proc) { c.Pop(p) }},
		{"Take", func(p *sim.Proc) { NewWorkCounter("w", 1).Take(c, p) }},
		{"Prefetch", func(p *sim.Proc) { c.Prefetch(p) }},
		{"NewConsumer", func(p *sim.Proc) { q.NewConsumer(p, 2) }},
		{"NewProducer", func(p *sim.Proc) { q.NewProducer(0) }},
	}
	for _, o := range ops {
		// Recover inside the body: uncaught, the panic would unwind
		// through Kernel.Run and fail the test instead of being checked.
		r.k.Go("late", func(p *sim.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on closed queue did not panic", o.name)
				}
			}()
			o.op(p)
		})
		r.k.Run()
	}
	if n := q.Popped(); n != 0 {
		t.Fatalf("the closed queue's consumer took %d message(s) pushed on the queue that reuses its SQI", n)
	}
}
