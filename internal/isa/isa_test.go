package isa

import (
	"testing"

	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/vl"
)

type rig struct {
	k   *sim.Kernel
	bus *noc.Bus
	as  *mem.AddressSpace
	dev *vl.Device
	isa *ISA
}

func newRig(cfg vl.Config) *rig {
	k := sim.New()
	k.SetDeadline(1 << 30)
	bus := noc.New(k)
	as := mem.NewAddressSpace(k)
	dev := vl.New(k, bus, as, cfg)
	return &rig{k: k, bus: bus, as: as, dev: dev, isa: New(k, bus, dev)}
}

// TestNoteCounters: each issue half bumps its operation counter. The
// core-side cycles are charged by the caller (the vlq endpoint state
// machines), not here.
func TestNoteCounters(t *testing.T) {
	r := newRig(vl.Config{})
	r.isa.NoteSelect()
	r.isa.NoteSelect()
	r.isa.NotePush()
	r.isa.NoteFetch()
	r.isa.NoteRegister()
	want := Stats{Selects: 2, Pushes: 1, Fetches: 1, Registers: 1}
	if got := r.isa.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if r.k.Pending() != 0 {
		t.Fatalf("issue halves scheduled %d events", r.k.Pending())
	}
}

// pushArrival is the bus latency of one vl_push: a cache line's
// serialization plus the hop to the routing device.
const pushArrival = (config.LineBytes+config.BusBytesPerCycle-1)/config.BusBytesPerCycle + config.HopCycles

// TestPushDelivery: a push enqueued once its issue cycles have elapsed
// is accepted, and the callback runs, at its packet's arrival tick.
func TestPushDelivery(t *testing.T) {
	r := newRig(vl.Config{})
	s, _ := r.dev.AllocSQI()
	snd := r.isa.NewPushSender()
	var acceptedAt uint64
	r.k.AtFunc(config.VLPushCycles, func(uint64) {
		r.isa.EnqueuePush(snd, s, mem.Message{Payload: 5}, func() { acceptedAt = r.k.Now() })
	}, 0)
	r.k.Run()
	if want := uint64(config.VLPushCycles + pushArrival); acceptedAt != want {
		t.Fatalf("push accepted at tick %d, want %d", acceptedAt, want)
	}
	if r.dev.BufferedLen(s) != 1 {
		t.Fatal("message not buffered at device")
	}
}

// enqueuePushes posts n pushes of seqs 0..n-1 on snd, issued back to
// back from tick 0: push i's device write goes out once its issue
// cycles have elapsed, at (i+1)·VLPushCycles. After the last one it
// calls after, if set.
func enqueuePushes(r *rig, snd *Sender, s vl.SQI, n int, after func()) {
	for i := 0; i < n; i++ {
		r.k.AtFunc(uint64(i+1)*config.VLPushCycles, func(seq uint64) {
			r.isa.EnqueuePush(snd, s, mem.Message{Seq: seq}, nil)
			if seq == uint64(n-1) && after != nil {
				after()
			}
		}, uint64(i))
	}
}

// TestSenderOrderedReplay: a NACKed head write replays before younger
// writes of the same endpoint reach the device.
func TestSenderOrderedReplay(t *testing.T) {
	r := newRig(vl.Config{ProdEntries: 1, LinkEntries: 1})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(4)
	snd := r.isa.NewPushSender()
	fsnd := r.isa.NewFetchSender()

	// Three pushes against a 1-entry prodBuf: heavy NACK replay.
	enqueuePushes(r, snd, s, 3, nil)
	// The consumer is a step machine: after 200 cycles it fetches line
	// i, waits on its OnFill until the line is valid, and takes it.
	var task *sim.Task
	var cell sim.WaitCell
	i := 0
	var step func(uint64)
	step = func(state uint64) {
		switch state {
		case 0:
			r.k.AfterFunc(200, step, 1)
		case 1:
			r.isa.EnqueueFetch(fsnd, s, pg.Lines[i].Addr)
			fallthrough
		case 2:
			line := pg.Lines[i]
			if line.State != mem.LineValid {
				line.OnFill.WaitCell(&cell, 2)
				return
			}
			// Delivery order must match issue order despite replays.
			if got := line.Take().Seq; got != uint64(i) {
				t.Errorf("line %d holds seq %d", i, got)
			}
			if i++; i == 3 {
				task.Exit()
				return
			}
			step(1)
		}
	}
	cell.Init(r.k, step)
	task = r.k.GoFunc("consumer", step, 0)
	r.k.Run()
	if r.isa.Stats().Replays == 0 {
		t.Fatal("expected NACK replays with a 1-entry prodBuf")
	}
	if got := r.dev.Stats().PushAccepts; got != 3 {
		t.Fatalf("accepts = %d", got)
	}
}

func TestSenderPending(t *testing.T) {
	r := newRig(vl.Config{ProdEntries: 1, LinkEntries: 1})
	s, _ := r.dev.AllocSQI()
	snd := r.isa.NewPushSender()
	enqueuePushes(r, snd, s, 3, func() {
		if snd.Pending() == 0 {
			t.Error("sender queue empty immediately after 3 posted pushes")
		}
	})
	r.k.RunUntil(20)
	if snd.Pending() < 2 {
		t.Fatalf("pending = %d, want >= 2 (1-entry prodBuf)", snd.Pending())
	}
	r.k.Drain()
}

// TestRegisterReachesDevice: registrations in flight together each
// reach the device with their own operands, at their packet's arrival
// tick.
func TestRegisterReachesDevice(t *testing.T) {
	r := newRig(vl.Config{})
	ext := &captureExt{k: r.k}
	r.dev.SetSpecExtension(ext)
	s1, _ := r.dev.AllocSQI()
	s2, _ := r.dev.AllocSQI()
	r.k.AtFunc(config.SpamerRegCycles, func(uint64) {
		r.isa.SendRegister(s1, 0x1000, 4)
		r.isa.SendRegister(s2, 0x2000, 8)
	}, 0)
	r.k.Run()
	arrive := uint64(config.SpamerRegCycles + config.CtrlPacketCycles + config.HopCycles)
	want := []registration{{s1, 0x1000, 4, arrive}, {s2, 0x2000, 8, arrive}}
	if len(ext.got) != len(want) || ext.got[0] != want[0] || ext.got[1] != want[1] {
		t.Fatalf("registrations = %+v, want %+v", ext.got, want)
	}
	if len(r.isa.regs) != 0 {
		t.Fatalf("%d registration records left after delivery", len(r.isa.regs))
	}
}

type registration struct {
	sqi  vl.SQI
	base mem.Addr
	n    int
	at   uint64
}

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
