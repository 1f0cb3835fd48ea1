package swqueue

import (
	"testing"

	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
)

// script runs ops in order on a step-machine thread: each op starts
// one operation with next as its continuation, or calls next itself.
func script(k *sim.Kernel, name string, ops ...func(next sim.Cont)) {
	var task *sim.Task
	var step func(uint64)
	step = func(i uint64) {
		if i == uint64(len(ops)) {
			task.Exit()
			return
		}
		ops[i](sim.Cont{Fn: step, Arg: i + 1})
	}
	task = k.GoFunc(name, step, 0)
}

func sleep(k *sim.Kernel, d uint64) func(sim.Cont) {
	return func(next sim.Cont) { k.AfterFunc(d, next.Fn, next.Arg) }
}

func push(e *End, seq int) func(sim.Cont) {
	return func(next sim.Cont) { e.PushThen(mem.Message{Seq: uint64(seq)}, next) }
}

func TestCoherentQueueFIFO(t *testing.T) {
	k := sim.New()
	k.SetDeadline(1 << 30)
	bus := noc.New(k)
	q := NewCoherentQueue(k, bus, 4)
	const n = 50
	tx, rx := q.End(0), q.End(1)
	var prod, cons []func(sim.Cont)
	var got []uint64
	for i := 0; i < n; i++ {
		prod = append(prod, push(tx, i))
		cons = append(cons, rx.PopThen, func(next sim.Cont) {
			got = append(got, rx.Result().Seq)
			next.Call()
		}, sleep(k, 10))
	}
	script(k, "producer", prod...)
	script(k, "consumer", cons...)
	k.Run()
	if len(got) != n {
		t.Fatalf("popped %d", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("residual len = %d", q.Len())
	}
	st := q.Stats()
	if st.Transfers == 0 || st.Invalidates == 0 {
		t.Fatalf("no coherence traffic recorded: %+v", st)
	}
}

func TestCoherentQueueBackpressure(t *testing.T) {
	k := sim.New()
	k.SetDeadline(1 << 30)
	bus := noc.New(k)
	q := NewCoherentQueue(k, bus, 2)
	tx, rx := q.End(0), q.End(1)
	var pushDone uint64
	var prod []func(sim.Cont)
	cons := []func(sim.Cont){sleep(k, 5000)}
	for i := 0; i < 4; i++ {
		prod = append(prod, push(tx, i))
		cons = append(cons, rx.PopThen)
	}
	prod = append(prod, func(next sim.Cont) {
		pushDone = k.Now()
		next.Call()
	})
	script(k, "producer", prod...)
	script(k, "consumer", cons...)
	k.Run()
	if pushDone < 5000 {
		t.Fatalf("producer finished at %d despite full queue", pushDone)
	}
}

// TestFigure1Ordering is the headline comparison of Figure 1:
// coherence-based queue slowest, Virtual-Link faster, SPAMeR fastest.
func TestFigure1Ordering(t *testing.T) {
	r := RunFigure1()
	if !(r.Lc > r.Lv && r.Lv > r.Ls) {
		t.Fatalf("latency ordering violated: Lc=%.1f Lv=%.1f Ls=%.1f", r.Lc, r.Lv, r.Ls)
	}
	if r.Lc < 1.5*r.Ls {
		t.Errorf("coherence queue only %.2fx slower than SPAMeR; expected a clear gap", r.Lc/r.Ls)
	}
}
