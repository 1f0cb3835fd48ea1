package vl

import (
	"strings"
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

// TestBufferHighWaterViolations corrupts the high-water marks and
// verifies CheckStructure reports the new invariants.
func TestBufferHighWaterViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Device)
		want    string
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(Config{})
			s, _ := r.dev.AllocSQI()
			pg := r.as.NewPage(2)
			// One buffered message and one parked request keep both
			// tables occupied so the below-allocated cases can trip.
			r.k.AtFunc(0, func(uint64) { r.dev.Push(s, mem.Message{Seq: 0}) }, 0)
			r.k.AtFunc(1, func(uint64) {
				s2, err := r.dev.AllocSQI()
				if err != nil {
					t.Errorf("AllocSQI: %v", err)
					return
				}
				r.dev.Fetch(s2, pg.Lines[1].Addr)
			}, 0)
			r.k.Run()
			tc.corrupt(r.dev)
			err := r.dev.CheckStructure()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %q, want message containing %q", err, tc.want)
			}
		})
	}
}
