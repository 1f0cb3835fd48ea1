package vlq

import (
	"testing"

	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/sim"
	"spamer/internal/vl"
)

// wait is the op that lets d cycles pass.
func wait(k *sim.Kernel, d uint64) op {
	return func(next sim.Cont) { k.AfterFunc(d, next.Fn, next.Arg) }
}

// pushArrival is the bus latency of one vl_push write: a cache line's
// serialization plus the hop to the routing device.
const pushArrival = (config.LineBytes+config.BusBytesPerCycle-1)/config.BusBytesPerCycle + config.HopCycles

// TestPushAcceptedAtArrival: the device accepts a push, and the
// endpoint sees the acceptance, at the tick its write's packet arrives.
func TestPushAcceptedAtArrival(t *testing.T) {
	r := newRig(false)
	rec := &recorder{}
	q := r.lib.NewQueue("q", rec)
	pushes(r.k, q, 1, index)
	r.k.Run()
	accept := rec.of("accept")
	want := uint64(config.InlineOverheadCycles + config.VLSelectCycles + config.VLPushCycles + pushArrival)
	if len(accept) != 1 || accept[0].tick != want {
		t.Fatalf("accepts %+v, want one at tick %d", accept, want)
	}
	if r.dev.BufferedLen(q.SQI()) != 1 || r.dev.Stats().PushAccepts != 1 {
		t.Fatal("message not buffered at the device")
	}
}

// nackedWrites pushes n messages from one producer against a 1-entry
// prodBuf, with a consumer that starts 200 cycles late so the prodBuf
// stays full meanwhile. It returns the producer's writes still queued
// right after its last push, and the seqs the consumer popped, in pop
// order.
func nackedWrites(n int) (r *rig, pending int, got []uint64) {
	r = newRigWith(vl.Config{ProdEntries: 1, LinkEntries: 1}, nil)
	q := r.lib.NewQueue("q", nil)
	var pr *Producer
	script(r.k, "producer", do(func() { pr = q.NewProducer(0) }),
		times(n, func(i int, next sim.Cont) { pr.PushThen(uint64(i), next) }),
		do(func() { pending = len(pr.writes.q) - pr.writes.head }))
	var c *Consumer
	script(r.k, "consumer", wait(r.k, 200), open(q, 4, &c),
		times(n, func(_ int, next sim.Cont) {
			c.PopThen(sim.Cont{Fn: func(arg uint64) {
				m, _ := c.Result()
				got = append(got, m.Seq)
				next.Fn(arg)
			}, Arg: next.Arg})
		}))
	r.k.Run()
	return r, pending, got
}

// TestProducerWritesQueueBehindNACK: against a 1-entry prodBuf a
// producer's posted writes pile up behind the NACKed head instead of
// reaching the device.
func TestProducerWritesQueueBehindNACK(t *testing.T) {
	if _, pending, _ := nackedWrites(6); pending < 2 {
		t.Errorf("%d writes queued after the last push; want at least 2 behind the NACKed head", pending)
	}
}

// TestProducerWritesReplayInOrder: a NACKed write replays before any
// younger write of the producer reaches the device, so the consumer
// pops every message in push order.
func TestProducerWritesReplayInOrder(t *testing.T) {
	const n = 6
	r, _, got := nackedWrites(n)
	if r.dev.Stats().PushNACKs == 0 {
		t.Error("no push NACKed against a 1-entry prodBuf")
	}
	if len(got) != n {
		t.Fatalf("popped %d of %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("pop %d took seq %d; delivery order %v, want push order", i, seq, got)
		}
	}
}

// TestRegistrationsReachDevice: two consumers that register in the same
// tick each reach the device with their own base and length, at their
// packets' arrival tick.
func TestRegistrationsReachDevice(t *testing.T) {
	ext := &captureExt{}
	r := newRigWith(vl.Config{}, ext)
	ext.k = r.k
	qs := []*Queue{r.lib.NewQueue("a", nil), r.lib.NewQueue("b", nil)}
	cs := make([]*Consumer, len(qs))
	for i, q := range qs {
		script(r.k, "consumer", open(q, 4*(i+1), &cs[i]))
	}
	r.k.Run()
	arrive := uint64(config.SpamerRegCycles + config.CtrlPacketCycles + config.HopCycles)
	want := []registration{
		{qs[0].SQI(), cs[0].Lines()[0].Addr, 4, arrive},
		{qs[1].SQI(), cs[1].Lines()[0].Addr, 8, arrive},
	}
	if len(ext.got) != len(want) || ext.got[0] != want[0] || ext.got[1] != want[1] {
		t.Fatalf("registrations = %+v, want %+v", ext.got, want)
	}
}

type registration struct {
	sqi  vl.SQI
	base mem.Addr
	n    int
	at   uint64
}

// captureExt is a spec extension that records registrations and
// schedules no speculative push.
type captureExt struct {
	k   *sim.Kernel
	got []registration
}

func (c *captureExt) Register(sqi vl.SQI, base mem.Addr, n int) error {
	c.got = append(c.got, registration{sqi, base, n, c.k.Now()})
	return nil
}
func (c *captureExt) SelectTarget(vl.SQI, uint64) (mem.Addr, int, uint64, bool) {
	return 0, 0, 0, false
}
func (c *captureExt) OnResult(int, bool, uint64) {}
func (c *captureExt) Unregister(vl.SQI)          {}
