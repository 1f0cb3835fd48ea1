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
			c := q.NewConsumer(p, 2, spec)
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
		c := q.NewConsumer(p, 2, true)
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
		c := q.NewConsumer(p, 3, false)
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
		c := q.NewConsumer(p, 2, false)
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

func TestTryPop(t *testing.T) {
	r := newRig(true)
	q := r.lib.NewQueue("q")
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		pr.Push(p, 42)
	})
	var immediate, eventual bool
	var got uint64
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2, true)
		_, immediate = c.TryPop(p) // too early: push still in flight
		p.Sleep(200)
		var m mem.Message
		m, eventual = c.TryPop(p)
		got = m.Payload
	})
	r.k.Run()
	if immediate {
		t.Fatal("TryPop succeeded before delivery")
	}
	if !eventual || got != 42 {
		t.Fatalf("TryPop after delivery = %v, %d", eventual, got)
	}
}

func TestPopOrDoneReleasesOnDone(t *testing.T) {
	r := newRig(true)
	q := r.lib.NewQueue("q")
	done := sim.NewSignal("done")
	isDone := false
	var popped, released bool
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2, true)
		_, popped = c.PopOrDone(p, done, func() bool { return isDone })
		released = true
	})
	r.k.AtFunc(500, func(uint64) {
		isDone = true
		done.Fire()
	}, 0)
	r.k.Run()
	if popped {
		t.Fatal("PopOrDone returned a message from an empty queue")
	}
	if !released {
		t.Fatal("PopOrDone never released the consumer")
	}
}

func TestPopOrDoneDeliversFirst(t *testing.T) {
	r := newRig(false)
	q := r.lib.NewQueue("q")
	done := sim.NewSignal("done")
	r.k.Go("producer", func(p *sim.Proc) {
		pr := q.NewProducer(0)
		pr.Push(p, 7)
	})
	var got uint64
	var ok bool
	r.k.Go("consumer", func(p *sim.Proc) {
		c := q.NewConsumer(p, 2, false)
		var m mem.Message
		m, ok = c.PopOrDone(p, done, func() bool { return false })
		got = m.Payload
	})
	r.k.Run()
	if !ok || got != 7 {
		t.Fatalf("PopOrDone = %v, %d", ok, got)
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
			c := q.NewConsumer(p, 2, false)
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
		consumer = q.NewConsumer(p, 2, true)
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
		c := q.NewConsumer(p, 2, true)
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
		c := q2.NewConsumer(p, 2, true)
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
		c := q.NewConsumer(p, 2, false)
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
	r.k.Go("setup", func(p *sim.Proc) { c = q.NewConsumer(p, 2, false) })
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
		{"PopOrDone", func(p *sim.Proc) { c.PopOrDone(p, sim.NewSignal("done"), func() bool { return false }) }},
		{"TryPop", func(p *sim.Proc) { c.TryPop(p) }},
		{"Prefetch", func(p *sim.Proc) { c.Prefetch(p) }},
		{"NewConsumer", func(p *sim.Proc) { q.NewConsumer(p, 2, false) }},
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
