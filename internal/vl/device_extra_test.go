package vl

import (
	"testing"
	"testing/quick"

	"spamer/internal/mem"
)

// TestAdmissionReservation: with k active SQIs, a hogging SQI cannot
// take the last reserved slots of its siblings.
func TestAdmissionReservation(t *testing.T) {
	r := newRig(Config{ProdEntries: 4, LinkEntries: 4})
	s1, _ := r.dev.AllocSQI()
	s2, _ := r.dev.AllocSQI()
	// sharedCap = 4 - 2 = 2: s1 may take its reserved slot + 2 shared.
	accepted := 0
	for i := 0; i < 4; i++ {
		if r.dev.Push(s1, mem.Message{Seq: uint64(i)}) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("hogging SQI accepted %d, want 3 (1 reserved + 2 shared)", accepted)
	}
	// The sibling's reserved slot must still be available.
	if !r.dev.Push(s2, mem.Message{}) {
		t.Fatal("sibling denied its reserved slot")
	}
	// Now the buffer is truly full.
	if r.dev.Push(s2, mem.Message{}) {
		t.Fatal("push accepted beyond capacity")
	}
}

// TestReservationAccountingOnFree: freeing entries restores both the
// per-SQI and shared-pool accounting.
func TestReservationAccountingOnFree(t *testing.T) {
	r := newRig(Config{ProdEntries: 4, LinkEntries: 4})
	s1, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(4)
	r.k.AtFunc(0, func(uint64) {
		for i := 0; i < 3; i++ {
			r.dev.Push(s1, mem.Message{Seq: uint64(i)})
		}
	}, 0)
	r.k.AtFunc(10, func(uint64) {
		for i := 0; i < 3; i++ {
			r.dev.Fetch(s1, pg.Lines[i].Addr)
		}
	}, 0)
	r.k.Run()
	// All delivered: accounting must be fully restored.
	if r.dev.FreeProdEntries() != 4 {
		t.Fatalf("free = %d", r.dev.FreeProdEntries())
	}
	if r.dev.sharedUsed != 0 || r.dev.usedPerSQI[s1] != 0 {
		t.Fatalf("accounting leak: shared=%d used=%d", r.dev.sharedUsed, r.dev.usedPerSQI[s1])
	}
}

// TestSQIReuseAfterFree: freeing and re-allocating SQIs keeps the
// linkTab consistent.
func TestSQIReuseAfterFree(t *testing.T) {
	r := newRig(Config{})
	s1, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(1)
	r.k.AtFunc(0, func(uint64) {
		r.dev.Push(s1, mem.Message{Payload: 1})
		r.dev.Fetch(s1, pg.Lines[0].Addr)
	}, 0)
	r.k.Run()
	pg.Lines[0].Take()
	if err := r.dev.FreeSQI(s1); err != nil {
		t.Fatalf("FreeSQI: %v", err)
	}
	s2, err := r.dev.AllocSQI()
	if err != nil || s2 != s1 {
		t.Fatalf("realloc = %v, %v", s2, err)
	}
	// The reused row must be clean.
	if r.dev.BufferedLen(s2) != 0 || r.dev.PendingRequests(s2) != 0 {
		t.Fatal("reused SQI carries stale state")
	}
}

// TestInterleavedSQIFairness: two SQIs pushing concurrently both make
// progress under a tiny prodBuf.
func TestInterleavedSQIFairness(t *testing.T) {
	r := newRig(Config{ProdEntries: 2, LinkEntries: 2})
	s1, _ := r.dev.AllocSQI()
	s2, _ := r.dev.AllocSQI()
	pg1 := r.as.NewPage(4)
	pg2 := r.as.NewPage(4)
	delivered := map[SQI]int{}
	const per = 4
	for i := 0; i < per; i++ {
		i := i
		// Pushes retry until accepted (mimicking an endpoint's replay).
		var try1, try2 func(uint64)
		try1 = func(uint64) {
			if !r.dev.Push(s1, mem.Message{Seq: uint64(i)}) {
				r.k.AfterFunc(8, try1, 0)
			}
		}
		try2 = func(uint64) {
			if !r.dev.Push(s2, mem.Message{Seq: uint64(i)}) {
				r.k.AfterFunc(8, try2, 0)
			}
		}
		r.k.AtFunc(uint64(i*5), try1, 0)
		r.k.AtFunc(uint64(i*5+1), try2, 0)
		r.k.AtFunc(uint64(100+i*40), func(uint64) { r.dev.Fetch(s1, pg1.Lines[i].Addr) }, 0)
		r.k.AtFunc(uint64(120+i*40), func(uint64) { r.dev.Fetch(s2, pg2.Lines[i].Addr) }, 0)
	}
	r.k.Run()
	for i := 0; i < per; i++ {
		if pg1.Lines[i].State == mem.LineValid {
			delivered[s1]++
		}
		if pg2.Lines[i].State == mem.LineValid {
			delivered[s2]++
		}
	}
	if delivered[s1] != per || delivered[s2] != per {
		t.Fatalf("delivered = %v, want %d each", delivered, per)
	}
}

// Property: random interleavings of pushes and fetches on a small
// device conserve messages and leave accounting clean.
func TestDeviceConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := newRig(Config{ProdEntries: 4, ConsEntries: 4, LinkEntries: 2})
		s1, _ := r.dev.AllocSQI()
		s2, _ := r.dev.AllocSQI()
		sqis := []SQI{s1, s2}
		pages := map[SQI]*mem.Page{s1: r.as.NewPage(8), s2: r.as.NewPage(8)}
		pushed := map[SQI]int{}
		fetched := map[SQI]int{}
		tick := uint64(0)
		for _, op := range ops {
			tick += uint64(op%13) + 1
			s := sqis[int(op)%2]
			if op%3 == 0 && fetched[s] < 8 {
				i := fetched[s]
				addr := pages[s].Lines[i].Addr
				r.k.AtFunc(tick, func(uint64) { r.dev.Fetch(s, addr) }, 0)
				fetched[s]++
			} else if pushed[s] < 8 {
				seq := uint64(pushed[s])
				r.k.AtFunc(tick, func(uint64) { r.dev.Push(s, mem.Message{Seq: seq}) }, 0)
				pushed[s]++
			}
		}
		r.k.Run()
		// Count fills; each must be <= min(pushed, fetched) and the
		// device must hold the remainder or have NACKed it.
		for _, s := range sqis {
			fills := 0
			for _, l := range pages[s].Lines {
				if l.State == mem.LineValid {
					fills++
				}
			}
			accepted := int(r.dev.Stats().PushAccepts) // across both, bound check only
			_ = accepted
			if fills > pushed[s] || fills > fetched[s] {
				return false
			}
		}
		// Accounting sanity.
		used := 0
		for _, u := range r.dev.usedPerSQI {
			if u < 0 {
				return false
			}
			used += u
		}
		if used != len(r.dev.prod)-r.dev.FreeProdEntries() {
			return false
		}
		return r.dev.sharedUsed >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSubAndRates(t *testing.T) {
	a := Stats{DemandPushes: 10, DemandMisses: 2, SpecPushes: 6, SpecMisses: 2, Fetches: 9, PushAccepts: 16}
	b := Stats{DemandPushes: 4, DemandMisses: 1, SpecPushes: 2, SpecMisses: 1, Fetches: 3, PushAccepts: 6}
	d := a.Sub(b)
	if d.DemandPushes != 6 || d.SpecPushes != 4 || d.Fetches != 6 || d.PushAccepts != 10 {
		t.Fatalf("Sub = %+v", d)
	}
	if a.TotalPushes() != 16 || a.FailedPushes() != 4 {
		t.Fatalf("totals: %d/%d", a.TotalPushes(), a.FailedPushes())
	}
	if got := a.FailureRate(); got != 0.25 {
		t.Fatalf("failure rate = %v", got)
	}
	if (Stats{}).FailureRate() != 0 {
		t.Fatal("empty failure rate")
	}
}

func TestEntryStateStrings(t *testing.T) {
	states := []entryState{entryFree, entryInput, entryMapping, entryBuffered, entrySpecWait, entrySendQueued, entryInFlight}
	seen := map[string]bool{}
	for _, st := range states {
		s := st.String()
		if s == "" || seen[s] {
			t.Fatalf("bad/duplicate state string %q", s)
		}
		seen[s] = true
	}
}
