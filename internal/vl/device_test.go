package vl

import (
	"testing"

	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
)

// rig bundles a kernel, bus, address space and device for tests.
type rig struct {
	k   *sim.Kernel
	bus *noc.Bus
	as  *mem.AddressSpace
	dev *Device
}

func newRig(cfg Config) *rig {
	k := sim.New()
	k.SetDeadline(10_000_000)
	bus := noc.New(k)
	as := mem.NewAddressSpace(k)
	return &rig{k: k, bus: bus, as: as, dev: New(k, bus, as, cfg)}
}

func TestAllocSQI(t *testing.T) {
	r := newRig(Config{LinkEntries: 3})
	var got []SQI
	for i := 0; i < 3; i++ {
		s, err := r.dev.AllocSQI()
		if err != nil {
			t.Fatalf("AllocSQI: %v", err)
		}
		got = append(got, s)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("SQIs = %v", got)
	}
	if _, err := r.dev.AllocSQI(); err == nil {
		t.Fatal("4th AllocSQI on a 3-row linkTab succeeded")
	}
	if err := r.dev.FreeSQI(2); err != nil {
		t.Fatalf("FreeSQI: %v", err)
	}
	s, err := r.dev.AllocSQI()
	if err != nil || s != 2 {
		t.Fatalf("realloc = %v, %v", s, err)
	}
}

func TestSQIZeroInvalid(t *testing.T) {
	r := newRig(Config{})
	if err := r.dev.checkSQI(0); err == nil {
		t.Fatal("SQI 0 accepted")
	}
	if err := r.dev.FreeSQI(0); err == nil {
		t.Fatal("FreeSQI(0) accepted")
	}
}

// TestDemandFlow walks the complete on-demand path of Figure 3:
// push (1-3), fetch (4), stash (5), and verifies the line is filled.
func TestDemandFlow(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	msg := mem.Message{Src: 0, Seq: 0, Payload: 99}

	r.k.AtFunc(0, func(uint64) {
		if !r.dev.Push(s, msg) {
			t.Error("push NACKed")
		}
	}, 0)
	r.k.AtFunc(1, func(uint64) {
		if !r.dev.Fetch(s, pg.Lines[0].Addr) {
			t.Error("fetch NACKed")
		}
	}, 0)
	r.k.Run()

	if pg.Lines[0].State != mem.LineValid || pg.Lines[0].Msg != msg {
		t.Fatalf("line = %v %+v", pg.Lines[0].State, pg.Lines[0].Msg)
	}
	st := r.dev.Stats()
	if st.DemandPushes != 1 || st.DemandHits != 1 || st.DemandMisses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !r.dev.Quiescent() {
		t.Fatal("device not quiescent")
	}
}

// TestFetchBeforePush exercises the consBuf path: the request arrives
// first, parks, and the later push matches it.
func TestFetchBeforePush(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)

	r.k.AtFunc(0, func(uint64) { r.dev.Fetch(s, pg.Lines[0].Addr) }, 0)
	r.k.AtFunc(5, func(uint64) {
		if r.dev.PendingRequests(s) != 1 {
			t.Errorf("pending requests = %d, want 1", r.dev.PendingRequests(s))
		}
		r.dev.Push(s, mem.Message{Payload: 1})
	}, 0)
	r.k.Run()

	if pg.Lines[0].State != mem.LineValid {
		t.Fatal("line not filled")
	}
	if r.dev.PendingRequests(s) != 0 {
		t.Fatal("request not consumed")
	}
}

// TestPushWithoutRequestBuffers verifies Path B of Figure 5.
func TestPushWithoutRequestBuffers(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{Payload: 1}) }, 0)
	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{Payload: 2}) }, 0)
	r.k.Run()
	if got := r.dev.BufferedLen(s); got != 2 {
		t.Fatalf("BufferedLen = %d, want 2", got)
	}
	if r.dev.FreeProdEntries() != len(r.dev.prod)-2 {
		t.Fatalf("free prod entries = %d", r.dev.FreeProdEntries())
	}
}

// TestBufferedFIFO: buffered messages drain to consumer requests in push
// order.
func TestBufferedFIFO(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(4)
	for i := 0; i < 4; i++ {
		i := i
		r.k.AtFunc(uint64(i), func(uint64) { r.dev.Push(s, mem.Message{Seq: uint64(i)}) }, 0)
	}
	for i := 0; i < 4; i++ {
		i := i
		r.k.AtFunc(uint64(100+10*i), func(uint64) { r.dev.Fetch(s, pg.Lines[i].Addr) }, 0)
	}
	r.k.Run()
	for i, l := range pg.Lines {
		if l.State != mem.LineValid || l.Msg.Seq != uint64(i) {
			t.Fatalf("line %d: %v seq=%d", i, l.State, l.Msg.Seq)
		}
	}
}

// TestMissRetry: a push to a still-valid line draws a miss and retries
// until the line vacates.
func TestMissRetry(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	line := pg.Lines[0]
	line.TryFill(mem.Message{Payload: 7}) // occupy the line

	r.k.AtFunc(0, func(uint64) {
		r.dev.Push(s, mem.Message{Payload: 8})
		r.dev.Fetch(s, line.Addr) // prerequest while the line is valid
	}, 0)
	// Consumer takes the old message later; the armed request's retry
	// loop then succeeds.
	r.k.AtFunc(500, func(uint64) { line.Take() }, 0)
	r.k.Run()

	if line.State != mem.LineValid || line.Msg.Payload != 8 {
		t.Fatalf("line = %v %+v", line.State, line.Msg)
	}
	st := r.dev.Stats()
	if st.DemandMisses == 0 {
		t.Fatalf("DemandMisses = %d, want > 0", st.DemandMisses)
	}
	if st.DemandHits != 1 {
		t.Fatalf("DemandHits = %d, want 1 (stats %+v)", st.DemandHits, st)
	}
	// The retry loop must not spin faster than its backoff: the line
	// vacated at 500, so roughly 500/(DemandRetryCycles+latency)
	// attempts fit before then.
	if st.DemandMisses > 500/DemandRetryCycles {
		t.Fatalf("DemandMisses = %d, retry loop too hot", st.DemandMisses)
	}
}

// TestProdBufBackpressure: pushes beyond capacity NACK.
func TestProdBufBackpressure(t *testing.T) {
	r := newRig(Config{ProdEntries: 2})
	s, _ := r.dev.AllocSQI()
	r.k.AtFunc(0, func(uint64) {
		if !r.dev.Push(s, mem.Message{}) || !r.dev.Push(s, mem.Message{}) {
			t.Error("first two pushes NACKed")
		}
		if r.dev.Push(s, mem.Message{}) {
			t.Error("third push accepted with 2-entry prodBuf")
		}
	}, 0)
	r.k.Run()
	if r.dev.Stats().PushNACKs != 1 {
		t.Fatalf("PushNACKs = %d", r.dev.Stats().PushNACKs)
	}
}

// TestConsBufBackpressure: requests beyond capacity NACK.
func TestConsBufBackpressure(t *testing.T) {
	r := newRig(Config{ConsEntries: 2})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(3)
	r.k.AtFunc(0, func(uint64) {
		if !r.dev.Fetch(s, pg.Lines[0].Addr) || !r.dev.Fetch(s, pg.Lines[1].Addr) {
			t.Error("first two fetches NACKed")
		}
		if r.dev.Fetch(s, pg.Lines[2].Addr) {
			t.Error("third fetch accepted with 2-entry consBuf")
		}
	}, 0)
	r.k.Run()
	if r.dev.Stats().FetchNACKs != 1 {
		t.Fatalf("FetchNACKs = %d", r.dev.Stats().FetchNACKs)
	}
}

// TestMultiSQIIsolation: traffic on one SQI does not leak to another.
func TestMultiSQIIsolation(t *testing.T) {
	r := newRig(Config{})
	s1, _ := r.dev.AllocSQI()
	s2, _ := r.dev.AllocSQI()
	pg1 := r.as.NewPage(1)
	pg2 := r.as.NewPage(1)
	r.k.AtFunc(0, func(uint64) {
		r.dev.Push(s1, mem.Message{Payload: 11})
		r.dev.Push(s2, mem.Message{Payload: 22})
		r.dev.Fetch(s2, pg2.Lines[0].Addr)
		r.dev.Fetch(s1, pg1.Lines[0].Addr)
	}, 0)
	r.k.Run()
	if pg1.Lines[0].Msg.Payload != 11 || pg2.Lines[0].Msg.Payload != 22 {
		t.Fatalf("cross-SQI leak: %+v %+v", pg1.Lines[0].Msg, pg2.Lines[0].Msg)
	}
}

// TestMNQueue: 2 producers, 2 consumers on one SQI; every message is
// delivered exactly once.
func TestMNQueue(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pgA := r.as.NewPage(4)
	pgB := r.as.NewPage(4)
	const perProducer = 4
	for prod := 0; prod < 2; prod++ {
		prod := prod
		for i := 0; i < perProducer; i++ {
			i := i
			r.k.AtFunc(uint64(prod+2*i), func(uint64) {
				r.dev.Push(s, mem.Message{Src: prod, Seq: uint64(i)})
			}, 0)
		}
	}
	for i := 0; i < 4; i++ {
		i := i
		r.k.AtFunc(uint64(50+i), func(uint64) { r.dev.Fetch(s, pgA.Lines[i].Addr) }, 0)
		r.k.AtFunc(uint64(60+i), func(uint64) { r.dev.Fetch(s, pgB.Lines[i].Addr) }, 0)
	}
	r.k.Run()
	seen := map[[2]uint64]int{}
	for _, pg := range []*mem.Page{pgA, pgB} {
		for _, l := range pg.Lines {
			if l.State != mem.LineValid {
				t.Fatalf("line %#x not filled", uint64(l.Addr))
			}
			seen[[2]uint64{uint64(l.Msg.Src), l.Msg.Seq}]++
		}
	}
	if len(seen) != 8 {
		t.Fatalf("distinct messages = %d, want 8", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("message %v delivered %d times", k, n)
		}
	}
}

func TestRegisterWithoutExtensionFails(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	if err := r.dev.Register(s, 64, 1); err == nil {
		t.Fatal("Register succeeded without a spec extension")
	}
}

func TestFreeSQIBusyFails(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{}) }, 0)
	r.k.Run()
	if err := r.dev.FreeSQI(s); err == nil {
		t.Fatal("FreeSQI succeeded with buffered data")
	}
}

// fakeSpec is a scripted SpecExtension for device-side unit tests.
type fakeSpec struct {
	targets  []mem.Addr
	delay    uint64
	selects  int
	results  []bool
	disabled bool
}

func (f *fakeSpec) Register(sqi SQI, base mem.Addr, n int) error { return nil }

func (f *fakeSpec) SelectTarget(sqi SQI, now uint64) (mem.Addr, int, uint64, bool) {
	if f.disabled || f.selects >= len(f.targets) {
		return 0, 0, 0, false
	}
	a := f.targets[f.selects]
	f.selects++
	return a, f.selects - 1, now + f.delay, true
}

func (f *fakeSpec) OnResult(cookie int, hit bool, now uint64) {
	f.results = append(f.results, hit)
}

func (f *fakeSpec) Unregister(sqi SQI) {}

// TestSpecPathDispatch: with an extension installed and no consumer
// request, mapping takes Path A and the push lands at the spec target.
func TestSpecPathDispatch(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	fs := &fakeSpec{targets: []mem.Addr{pg.Lines[0].Addr}, delay: 10}
	r.dev.SetSpecExtension(fs)

	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{Payload: 5}) }, 0)
	r.k.Run()

	if pg.Lines[0].State != mem.LineValid || pg.Lines[0].Msg.Payload != 5 {
		t.Fatalf("spec push did not land: %v", pg.Lines[0].State)
	}
	st := r.dev.Stats()
	if st.SpecPushes != 1 || st.SpecHits != 1 || st.DemandPushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(fs.results) != 1 || !fs.results[0] {
		t.Fatalf("OnResult = %v", fs.results)
	}
}

// TestDemandPriorityOverSpec: a queued consumer request wins over the
// spec path (the Stage-3 multiplexer picks consTgt when consHead != 0).
func TestDemandPriorityOverSpec(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	demand := r.as.NewPage(1)
	spec := r.as.NewPage(1)
	fs := &fakeSpec{targets: []mem.Addr{spec.Lines[0].Addr}}
	r.dev.SetSpecExtension(fs)

	r.k.AtFunc(0, func(uint64) { r.dev.Fetch(s, demand.Lines[0].Addr) }, 0)
	r.k.AtFunc(1, func(uint64) { r.dev.Push(s, mem.Message{Payload: 3}) }, 0)
	r.k.Run()

	if demand.Lines[0].State != mem.LineValid {
		t.Fatal("demand target not filled")
	}
	if spec.Lines[0].State == mem.LineValid {
		t.Fatal("spec target filled despite pending request")
	}
	if fs.selects != 0 {
		t.Fatalf("SelectTarget consulted %d times, want 0", fs.selects)
	}
}

// TestSpecMissRetriesViaKick: a speculative miss rebuffers the entry and
// the response-time kick re-dispatches it.
func TestSpecMissRetriesViaKick(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	line := pg.Lines[0]
	line.TryFill(mem.Message{Payload: 1}) // occupied: first spec push misses
	targets := make([]mem.Addr, 100)
	for i := range targets {
		targets[i] = line.Addr
	}
	fs := &fakeSpec{targets: targets, delay: 25}
	r.dev.SetSpecExtension(fs)

	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{Payload: 2}) }, 0)
	r.k.AtFunc(200, func(uint64) { line.Take() }, 0)
	r.k.Run()

	if line.State != mem.LineValid || line.Msg.Payload != 2 {
		t.Fatalf("line = %v %+v", line.State, line.Msg)
	}
	st := r.dev.Stats()
	if st.SpecMisses == 0 || st.SpecHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSpecDelayHonored: the device issues the spec push at the predicted
// tick, not earlier.
func TestSpecDelayHonored(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	fs := &fakeSpec{targets: []mem.Addr{pg.Lines[0].Addr}, delay: 1000}
	r.dev.SetSpecExtension(fs)

	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{}) }, 0)
	r.k.Run()

	// The line stayed empty from tick 0 until the spec push filled it.
	line := pg.Lines[0]
	if line.State != mem.LineValid {
		t.Fatalf("line %v, want filled by the spec push", line.State)
	}
	if empty, _ := line.Occupancy(); empty < 1000 {
		t.Fatalf("fill at %d, want >= 1000 (spec delay)", empty)
	}
}

// TestFetchRacesSpecWait: a request arriving while data sits in the
// speculative push queue parks; the spec push still delivers to the spec
// target, and the next push serves the request.
func TestFetchRacesSpecWait(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	spec := r.as.NewPage(1)
	demand := r.as.NewPage(1)
	fs := &fakeSpec{targets: []mem.Addr{spec.Lines[0].Addr}, delay: 500}
	r.dev.SetSpecExtension(fs)

	r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{Payload: 1}) }, 0)
	r.k.AtFunc(100, func(uint64) { r.dev.Fetch(s, demand.Lines[0].Addr) }, 0) // data already in spec-wait
	r.k.AtFunc(200, func(uint64) { r.dev.Push(s, mem.Message{Payload: 2}) }, 0)
	r.k.Run()

	if spec.Lines[0].Msg.Payload != 1 {
		t.Fatalf("spec line got %+v", spec.Lines[0].Msg)
	}
	if demand.Lines[0].Msg.Payload != 2 {
		t.Fatalf("demand line got %+v", demand.Lines[0].Msg)
	}
}

func TestQuiescentWithPendingRequest(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	r.k.AtFunc(0, func(uint64) { r.dev.Fetch(s, pg.Lines[0].Addr) }, 0)
	r.k.Run()
	if !r.dev.Quiescent() {
		t.Fatal("device with only a parked request should be quiescent")
	}
}
