package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestFarHorizonFIFO is the property test for far-heap scheduling: a
// random mix of near-wheel, far-heap, and end-of-time ticks — including
// same-tick clusters — must dispatch in exact (tick, seq) order, with no
// mis-bucketing near the uint64 boundary.
func TestFarHorizonFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	k := New()
	type stamp struct{ tick, seq uint64 }
	var want []stamp
	add := func(tick uint64) {
		k.AtFunc(tick, func(uint64) {}, 0)
		want = append(want, stamp{tick, k.seq})
	}
	// Boundary ticks: at and around the top of the range, at the wheel
	// window edge, and on exact powers of two.
	max := ^uint64(0)
	for _, tk := range []uint64{max, max, max - 1, max - wheelSize, max - wheelSize - 1,
		max - wheelSize + 1, 1 << 63, (1 << 63) - 1, wheelSize, wheelSize - 1, 0} {
		add(tk)
	}
	// Random far-horizon inserts with same-tick clusters.
	for i := 0; i < 2000; i++ {
		var tk uint64
		switch rng.Intn(4) {
		case 0:
			tk = uint64(rng.Intn(2 * wheelSize))
		case 1:
			tk = rng.Uint64() % (1 << 32)
		case 2:
			tk = max - uint64(rng.Intn(4*wheelSize))
		default:
			tk = rng.Uint64()
		}
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			add(tk)
		}
	}
	var got []stamp
	k.SetDispatchObserver(func(tick, seq uint64) { got = append(got, stamp{tick, seq}) })
	k.Run()

	sort.Slice(want, func(i, j int) bool {
		if want[i].tick != want[j].tick {
			return want[i].tick < want[j].tick
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: got (%d,%d), want (%d,%d)",
				i, got[i].tick, got[i].seq, want[i].tick, want[i].seq)
		}
	}
	if k.Now() != max {
		t.Fatalf("clock ended at %d, want %d", k.Now(), max)
	}
}

// TestFarHorizonInsertDuringRun pins FIFO order when callbacks schedule
// new far-horizon and same-tick events while the kernel is draining a
// batched tick bucket.
func TestFarHorizonInsertDuringRun(t *testing.T) {
	k := New()
	var order []uint64
	note := func(id uint64) func(uint64) {
		return func(uint64) { order = append(order, id) }
	}
	base := uint64(1 << 40)
	k.AtFunc(base, func(uint64) {
		order = append(order, 1)
		k.AtFunc(base, note(2), 0)             // same tick, must run this tick after 3
		k.AtFunc(base+wheelSize*3, note(4), 0) // far future relative to wheel
		k.AtFunc(^uint64(0), note(5), 0)       // end of time
	}, 0)
	k.AtFunc(base, note(3), 0) // scheduled before the callback's same-tick insert
	k.Run()
	want := []uint64{1, 3, 2, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("got order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}
