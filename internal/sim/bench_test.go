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

// BenchmarkSignalFire measures broadcast wake of 8 waiting threads.
func BenchmarkSignalFire(b *testing.B) {
	b.ReportAllocs()
	k := New()
	sig := NewSignal("s")
	const waiters = 8
	type waiter struct {
		task  *Task
		cell  WaitCell
		waits int
	}
	ws := make([]waiter, waiters)
	for w := range ws {
		wt := &ws[w]
		step := func(uint64) {
			if wt.waits == b.N {
				wt.task.Exit()
				return
			}
			wt.waits++
			sig.WaitCell(&wt.cell, 0)
		}
		wt.cell.Init(k, step)
		wt.task = k.GoFunc("w", step, 0)
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
// WaitCell/Fire pattern of the vlq queue library. The waiter backing
// arrays and wake tokens must be fully recycled: 0 allocs/op in steady
// state.
func BenchmarkSignalWaiterChurn(b *testing.B) {
	b.ReportAllocs()
	k := New()
	ping := NewSignal("ping")
	pong := NewSignal("pong")
	// Each thread's step argument selects its state: 0 starts round i,
	// the others resume it.
	var cons, prod struct {
		task *Task
		cell WaitCell
		i    int
	}
	var consStep, prodStep func(uint64)
	consStep = func(state uint64) {
		if state == 1 { // pinged
			pong.Fire()
			cons.i++
		}
		if cons.i == b.N {
			cons.task.Exit()
			return
		}
		ping.WaitCell(&cons.cell, 1)
	}
	prodStep = func(state uint64) {
		switch state {
		case 0:
			if prod.i == b.N {
				prod.task.Exit()
				return
			}
			k.AfterFunc(1, prodStep, 1)
		case 1: // slept
			ping.Fire()
			pong.WaitCell(&prod.cell, 2)
		case 2: // ponged
			prod.i++
			prodStep(0)
		}
	}
	cons.cell.Init(k, consStep)
	prod.cell.Init(k, prodStep)
	cons.task = k.GoFunc("consumer", consStep, 0)
	prod.task = k.GoFunc("producer", prodStep, 0)
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	k.Drain()
}
