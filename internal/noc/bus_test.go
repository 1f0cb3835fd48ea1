package noc

import (
	"math/rand"
	"testing"

	"spamer/internal/config"
	"spamer/internal/sim"
)

func TestPacketDeliveryLatency(t *testing.T) {
	k := sim.New()
	b := New(k)
	var arrived uint64
	k.AtFunc(0, func(uint64) {
		b.SendFunc(PktFetchReq, func(uint64) { arrived = k.Now() }, 0)
	}, 0)
	k.Run()
	want := uint64(config.CtrlPacketCycles + config.HopCycles)
	if arrived != want {
		t.Fatalf("arrival = %d, want %d", arrived, want)
	}
}

func TestDataPacketOccupancy(t *testing.T) {
	k := sim.New()
	b := New(k)
	var arrived uint64
	k.AtFunc(0, func(uint64) {
		b.SendFunc(PktStash, func(uint64) { arrived = k.Now() }, 0)
	}, 0)
	k.Run()
	occ := uint64((config.LineBytes + config.BusBytesPerCycle - 1) / config.BusBytesPerCycle)
	want := occ + config.HopCycles
	if arrived != want {
		t.Fatalf("arrival = %d, want %d", arrived, want)
	}
}

func TestSerialization(t *testing.T) {
	k := sim.New()
	b := NewWithOptions(k, config.HopCycles, 1) // single channel: strict FIFO
	var arrivals []uint64
	k.AtFunc(0, func(uint64) {
		for i := 0; i < 3; i++ {
			b.SendFunc(PktStash, func(uint64) { arrivals = append(arrivals, k.Now()) }, 0)
		}
	}, 0)
	k.Run()
	occ := uint64(2) // 64B / 32B-per-cycle
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i, a := range arrivals {
		want := occ*uint64(i+1) + config.HopCycles
		if a != want {
			t.Fatalf("arrival[%d] = %d, want %d", i, a, want)
		}
	}
	if got := b.Stats().BusyCycles; got != 3*occ {
		t.Fatalf("BusyCycles = %d, want %d", got, 3*occ)
	}
}

func TestUtilization(t *testing.T) {
	k := sim.New()
	b := New(k)
	k.AtFunc(0, func(uint64) {
		b.occupy(PktStash)
		b.occupy(PktStash)
	}, 0)
	k.AtFunc(100, func(uint64) {
		want := 4.0 / float64(100*b.Channels())
		if u := b.Utilization(); u != want {
			t.Errorf("utilization = %v, want %v", u, want)
		}
	}, 0)
	k.Run()
}

// TestUtilizationExactUnderOverload is the regression test for the old
// clamp: SendFunc charges BusyCycles at submit time for serialization that
// happens in the future, so measuring against Now alone overcounted
// (here 6 busy cycles against a 1-cycle window, clamped to 1.0). The
// window must extend to the last committed busy cycle, giving the exact
// ratio.
func TestUtilizationExactUnderOverload(t *testing.T) {
	k := sim.New()
	b := NewWithOptions(k, config.HopCycles, 2)
	k.AtFunc(0, func(uint64) {
		// Three stashes (occupancy 2) on two channels: freeAt = [4, 2],
		// BusyCycles = 6.
		for i := 0; i < 3; i++ {
			b.occupy(PktStash)
		}
	}, 0)
	k.AtFunc(1, func(uint64) {
		// Window extends to max(freeAt) = 4 over 2 channels: 6/8.
		if u := b.Utilization(); u != 0.75 {
			t.Errorf("utilization = %v, want 0.75", u)
		}
	}, 0)
	k.Run()
}

// End-of-run utilization must include serialization still pending when
// the last event fires (the Figure 10b end-of-run readout): previously
// the window was zero cycles here and the metric collapsed to 0.
func TestUtilizationCountsFutureSerialization(t *testing.T) {
	k := sim.New()
	b := New(k)
	k.AtFunc(0, func(uint64) {
		b.occupy(PktStash)
		b.occupy(PktStash)
	}, 0)
	k.Run() // drains at tick 0; two channels stay busy until tick 2
	if u := b.Utilization(); u != 0.5 {
		t.Errorf("end-of-run utilization = %v, want 0.5 (4 busy / 2*4 channel-cycles)", u)
	}
}

// Saturation pegs the metric at exactly 1, never above, with no clamp
// in the implementation to mask overcounting.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	k := sim.New()
	b := NewWithOptions(k, 0, 1)
	k.AtFunc(0, func(uint64) {
		for i := 0; i < 100; i++ {
			b.occupy(PktStash)
		}
	}, 0)
	k.AtFunc(10, func(uint64) {
		if u := b.Utilization(); u != 1 {
			t.Errorf("mid-run saturated utilization = %v, want exactly 1", u)
		}
	}, 0)
	k.Run()
	if u := b.Utilization(); u != 1 {
		t.Errorf("end-of-run saturated utilization = %v, want exactly 1", u)
	}
}

func TestPacketCounters(t *testing.T) {
	k := sim.New()
	b := New(k)
	k.AtFunc(0, func(uint64) {
		b.occupy(PktPush)
		b.occupy(PktPush)
		b.occupy(PktFetchReq)
		b.occupy(PktResp)
	}, 0)
	k.Run()
	s := b.Stats()
	if s.PacketCount(PktPush) != 2 || s.PacketCount(PktFetchReq) != 1 || s.PacketCount(PktResp) != 1 {
		t.Fatalf("counts: %+v", s.Packets)
	}
	if s.TotalPackets() != 4 {
		t.Fatalf("TotalPackets = %d", s.TotalPackets())
	}
}

func TestResetStats(t *testing.T) {
	k := sim.New()
	b := New(k)
	k.AtFunc(0, func(uint64) { b.occupy(PktPush) }, 0)
	k.AtFunc(50, func(uint64) {
		b.ResetStats()
		if b.Stats().TotalPackets() != 0 {
			t.Error("ResetStats did not clear packets")
		}
	}, 0)
	k.AtFunc(100, func(uint64) {
		if u := b.Utilization(); u != 0 {
			t.Errorf("post-reset utilization = %v", u)
		}
	}, 0)
	k.Run()
}

func TestChannelsParallel(t *testing.T) {
	k := sim.New()
	b := NewWithOptions(k, 0, 2)
	var arrivals []uint64
	k.AtFunc(0, func(uint64) {
		for i := 0; i < 4; i++ {
			b.SendFunc(PktStash, func(uint64) { arrivals = append(arrivals, k.Now()) }, 0)
		}
	}, 0)
	k.Run()
	// 2 channels, occupancy 2: pairs arrive at 2 and 4.
	want := []uint64{2, 2, 4, 4}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestCustomHopLatency(t *testing.T) {
	k := sim.New()
	b := NewWithHopLatency(k, 50)
	var arrived uint64
	k.AtFunc(0, func(uint64) { b.SendFunc(PktResp, func(uint64) { arrived = k.Now() }, 0) }, 0)
	k.Run()
	if arrived != 51 {
		t.Fatalf("arrival = %d, want 51", arrived)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []PacketKind{PktPush, PktFetchReq, PktStash, PktResp, PktRegister, PktCoherence}
	seen := map[string]bool{}
	for _, pk := range kinds {
		s := pk.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate String for %d: %q", pk, s)
		}
		seen[s] = true
	}
}

// scanOccupy is the channel pick occupy made with a data-dependent
// branch, kept as the reference for the branch-free one: the first
// channel with the smallest freeAt, and the tick its packet starts.
func scanOccupy(freeAt []uint64, now uint64) (ch int, start uint64) {
	for i := 1; i < len(freeAt); i++ {
		if freeAt[i] < freeAt[ch] {
			ch = i
		}
	}
	start = now
	if freeAt[ch] > start {
		start = freeAt[ch]
	}
	return ch, start
}

// TestOccupyMatchesScan: over random channel states of 1 to 8 channels,
// most with two or more channels tied at the earliest free tick, occupy
// books the same channel and returns the same arrival tick as the
// reference scan, and leaves every other channel alone.
func TestOccupyMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	kinds := []PacketKind{PktPush, PktFetchReq, PktStash, PktResp, PktRegister, PktCoherence}
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(8)
		now := uint64(rng.Intn(40))
		k := sim.New()
		k.RunUntil(now)
		b := NewWithOptions(k, uint64(rng.Intn(20)), n)
		// A narrow range makes ties common; copying the minimum to a
		// second channel forces one at the pick.
		lo := 0
		for i := range b.freeAt {
			b.freeAt[i] = uint64(rng.Intn(48))
			if b.freeAt[i] < b.freeAt[lo] {
				lo = i
			}
		}
		if n > 1 && rng.Intn(4) != 0 {
			b.freeAt[rng.Intn(n)] = b.freeAt[lo]
		}
		want := append([]uint64(nil), b.freeAt...)
		kind := kinds[rng.Intn(len(kinds))]
		ch, start := scanOccupy(want, now)
		want[ch] = start + occupancy(kind)
		arrival := b.occupy(kind)
		if wantArrival := start + occupancy(kind) + b.HopLatency(); arrival != wantArrival {
			t.Fatalf("iter %d: arrival %d, reference %d", iter, arrival, wantArrival)
		}
		for i := range want {
			if b.freeAt[i] != want[i] {
				t.Fatalf("iter %d: freeAt after occupy %v, reference %v (channel %d)", iter, b.freeAt, want, ch)
			}
		}
	}
}

// BenchmarkBusSend measures one packet through the bus: the channel
// pick, the accounting and its delivery event, for a mix of data and
// control packets on the default four channels, two sent per tick so
// the channels stay below saturation. Steady state must be 0 allocs/op.
func BenchmarkBusSend(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	bus := New(k)
	kinds := [...]PacketKind{PktPush, PktFetchReq, PktStash, PktResp, PktStash, PktRegister}
	n := 0
	deliver := func(uint64) {}
	var send func(uint64)
	send = func(uint64) {
		for j := 0; j < 2 && n < b.N; j++ {
			bus.SendFunc(kinds[n%len(kinds)], deliver, uint64(n))
			n++
		}
		if n < b.N {
			k.AfterFunc(1, send, 0)
		}
	}
	k.AtFunc(0, send, 0)
	b.ResetTimer()
	k.Run()
}
