package sim

import "testing"

// BenchmarkEventDispatch measures raw event-queue throughput — the
// floor under every simulation in the repository — on the
// self-rescheduling pattern the device tick paths use. Steady state must
// be 0 allocs/op: the event reuses one bound func value and the wheel
// bucket's backing array.
func BenchmarkEventDispatch(b *testing.B) {
	b.ReportAllocs()
	k := New()
	n := 0
	var self func(uint64)
	self = func(arg uint64) {
		n++
		if n < b.N {
			k.AfterFunc(1, self, arg+1)
		}
	}
	k.AtFunc(0, self, 0)
	b.ResetTimer()
	k.Run()
}

// BenchmarkEventHeapChurn measures scheduling with a deep pending set
// spanning the calendar wheel and the far heap (ticks 1..96 around the
// 64-tick wheel boundary).
func BenchmarkEventHeapChurn(b *testing.B) {
	b.ReportAllocs()
	k := New()
	for i := 0; i < 1024; i++ {
		k.AtFunc(uint64(1+i%97), func(uint64) {}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AtFunc(uint64(1+i%97), func(uint64) {}, 0)
	}
	b.StopTimer()
	k.Run()
}

// BenchmarkMixedWorkload reproduces the realistic steady-state
// scheduling mix of a busy routing device: a per-cycle tick (After(1),
// the mapper), a short-delay completion (the mapping pipeline), a
// medium-delay delivery (bus serialization + hop), and an occasional
// far-future event crossing the wheel/heap boundary (a predicted
// speculative send). Steady state must be 0 allocs/op.
func BenchmarkMixedWorkload(b *testing.B) {
	b.ReportAllocs()
	k := New()
	n := 0
	sink := uint64(0)
	work := func(arg uint64) { sink += arg }
	var tick func(uint64)
	tick = func(uint64) {
		n++
		if n >= b.N {
			return
		}
		k.AfterFunc(1, tick, 0)          // mapper tick
		k.AfterFunc(3, work, uint64(n))  // pipeline completion
		k.AfterFunc(12, work, uint64(n)) // bus delivery
		if n%16 == 0 {                   // predicted spec send
			k.AfterFunc(200+uint64(n%97), work, 1) // far heap
		}
	}
	k.AtFunc(0, tick, 0)
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSwitch measures a coroutine sleep/wake round trip — two
// goroutine handoffs over the single control channel per iteration.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := New()
	k.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkSignalFire measures broadcast wake of 8 parked processes.
func BenchmarkSignalFire(b *testing.B) {
	b.ReportAllocs()
	k := New()
	sig := NewSignal("s")
	const waiters = 8
	for w := 0; w < waiters; w++ {
		k.Go("w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				sig.Wait(p)
			}
		})
	}
	var pump func(uint64)
	fired := 0
	pump = func(uint64) {
		sig.Fire()
		fired++
		if fired < b.N+1 {
			k.AfterFunc(1, pump, 0)
		}
	}
	k.AtFunc(1, pump, 0)
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Drain()
}

// BenchmarkSignalWaiterChurn measures the waiter-list churn of a
// producer/consumer pair exchanging wakes through two signals — the
// Wait/Fire pattern of the vlq queue library. The waiter backing arrays
// and wake tokens must be fully recycled: 0 allocs/op in steady state.
func BenchmarkSignalWaiterChurn(b *testing.B) {
	b.ReportAllocs()
	k := New()
	ping := NewSignal("ping")
	pong := NewSignal("pong")
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Wait(p)
			pong.Fire()
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
			ping.Fire()
			pong.Wait(p)
		}
	})
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Drain()
}
