package vl

import (
	"regexp"
	"testing"

	"spamer/internal/mem"
)

// TestBufferHighWaterLatchesPeak pushes three messages (peak prodBuf
// occupancy 3), drains them with fetches, then parks two extra fetches
// (peak consBuf occupancy 2): both high-water marks must report the
// peaks, not the drained counts.
func TestBufferHighWaterLatchesPeak(t *testing.T) {
	r := newRig(Config{})
	s, _ := r.dev.AllocSQI()
	pg := r.as.NewPage(8)

	for i := 0; i < 3; i++ {
		i := i
		r.k.AtFunc(uint64(i), func(uint64) { r.dev.Push(s, mem.Message{Seq: uint64(i)}) }, 0)
	}
	for i := 0; i < 3; i++ {
		i := i
		r.k.AtFunc(uint64(100+10*i), func(uint64) { r.dev.Fetch(s, pg.Lines[i].Addr) }, 0)
	}
	// Unanswered fetches park in consBuf.
	r.k.AtFunc(200, func(uint64) { r.dev.Fetch(s, pg.Lines[3].Addr) }, 0)
	r.k.AtFunc(201, func(uint64) { r.dev.Fetch(s, pg.Lines[4].Addr) }, 0)
	r.k.Run()

	if got := r.dev.ProdHighWater(); got != 3 {
		t.Fatalf("prodBuf high-water = %d, want 3", got)
	}
	if free := r.dev.FreeProdEntries(); free != len(r.dev.prod) {
		t.Fatalf("prodBuf not drained: %d free of %d", free, len(r.dev.prod))
	}
	if got := r.dev.ConsHighWater(); got != 2 {
		t.Fatalf("consBuf high-water = %d, want 2", got)
	}
	if err := r.dev.CheckStructure(); err != nil {
		t.Fatalf("structure after churn: %v", err)
	}
}

// TestBufferHighWaterViolations corrupts one invariant of the device
// tables at a time, the high-water marks and the queue chains, and
// verifies CheckStructure reports it. SQI 1 holds two buffered messages
// and SQI 2 two parked requests, so every chain has a head and a
// distinct tail.
func TestBufferHighWaterViolations(t *testing.T) {
	const s, s2 = SQI(1), SQI(2)
	cases := []struct {
		name    string
		corrupt func(d *Device)
		want    string // a regular expression
	}{
		{"prod-below-allocated", func(d *Device) {
			d.prodHighWater = 0
		}, "prodBuf high-water"},
		{"prod-above-capacity", func(d *Device) {
			d.prodHighWater = len(d.prod) + 1
		}, "prodBuf high-water"},
		{"cons-below-used", func(d *Device) {
			d.consHighWater = 0
		}, "consBuf high-water"},
		{"cons-above-capacity", func(d *Device) {
			d.consHighWater = len(d.cons) + 1
		}, "consBuf high-water"},
		{"buffered-tail-register", func(d *Device) {
			d.link[s].buf.tail = d.link[s].buf.head
		}, "SQI 1 buffered chain: tail"},
		{"request-tail-register", func(d *Device) {
			d.link[s2].reqs.tail = d.link[s2].reqs.head
		}, "SQI 2 request chain: tail"},
		{"entry-in-two-chains", func(d *Device) {
			idx := d.link[s].buf.tail
			d.link[s2].buf = chain{idx, idx}
		}, `SQI 2 buffered chain: prodBuf entry \d+ also linked by a buffered chain`},
		{"buffered-state", func(d *Device) {
			d.prod[d.link[s].buf.tail].state = entrySendQueued
		}, `SQI 1 buffered chain: prodBuf entry \d+ has state send-queued`},
		{"buffered-sqi-tag", func(d *Device) {
			d.prod[d.link[s].buf.tail].sqi = s2
		}, `SQI 1 buffered chain: prodBuf entry \d+ tagged SQI 2`},
		{"request-sqi-tag", func(d *Device) {
			d.cons[d.link[s2].reqs.tail].sqi = s
		}, `SQI 2 request chain: consBuf entry \d+ tagged SQI 1`},
		{"request-unused", func(d *Device) {
			d.cons[d.link[s2].reqs.tail].used = false
		}, `SQI 2 request chain: consBuf entry \d+ not in use`},
		{"buffered-out-of-range", func(d *Device) {
			d.prodNext[d.link[s].buf.tail] = len(d.prod)
		}, "SQI 1 buffered chain: holds out-of-range index 64"},
		{"request-cycle", func(d *Device) {
			r := &d.link[s2].reqs
			d.consNext[r.tail] = r.head
		}, "SQI 2 request chain: cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(Config{})
			for _, want := range []SQI{s, s2} {
				if got, err := r.dev.AllocSQI(); got != want || err != nil {
					t.Fatalf("AllocSQI = %d, %v; want %d", got, err, want)
				}
			}
			pg := r.as.NewPage(2)
			// Buffered messages and parked requests keep both tables
			// occupied so the below-allocated cases can trip.
			for i := 0; i < 2; i++ {
				i := i
				r.k.AtFunc(uint64(i), func(uint64) { r.dev.Push(s, mem.Message{Seq: uint64(i)}) }, 0)
				r.k.AtFunc(uint64(i), func(uint64) { r.dev.Fetch(s2, pg.Lines[i].Addr) }, 0)
			}
			r.k.Run()
			if err := r.dev.CheckStructure(); err != nil {
				t.Fatalf("structure before corruption: %v", err)
			}
			if r.dev.BufferedLen(s) != 2 || r.dev.PendingRequests(s2) != 2 {
				t.Fatalf("set-up: %d buffered, %d requests; want 2 and 2", r.dev.BufferedLen(s), r.dev.PendingRequests(s2))
			}
			tc.corrupt(r.dev)
			err := r.dev.CheckStructure()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !regexp.MustCompile(tc.want).MatchString(err.Error()) {
				t.Fatalf("got %q, want a message matching %q", err, tc.want)
			}
		})
	}
}
