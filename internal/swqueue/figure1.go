package swqueue

import (
	"spamer"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
)

// Figure1Result is the cross-core message latency comparison of the
// paper's Figure 1: the mean push-to-first-use latency (in cycles,
// consumer busy time excluded) of a closed-loop 1:1 transfer under the
// coherence-based software queue (Lc), Virtual-Link (Lv), and SPAMeR
// (Ls). The claim to reproduce is the strict ordering Lc > Lv > Ls.
//
// Protocol per message (one in flight at a time, synchronized by
// out-of-band harness signals so queue-depth effects cannot mask
// mechanism latency): the producer stamps and pushes, the consumer works
// for a fixed busy period while the message travels, then turns to the
// queue. Under Virtual-Link the turn costs a request round trip; under
// SPAMeR the data is already in the consumer's line; under the coherent
// software queue the turn ping-pongs the shared control and data lines.
type Figure1Result struct {
	Lc, Lv, Ls float64
	Messages   int
}

const (
	fig1Messages = 300
	fig1BusyWork = 100 // consumer busy period while the message travels
)

// RunFigure1 measures all three mechanisms.
func RunFigure1() Figure1Result {
	return Figure1Result{
		Lc:       measureCoherent(),
		Lv:       measureHW(spamer.AlgBaseline),
		Ls:       measureHW(spamer.AlgZeroDelay),
		Messages: fig1Messages,
	}
}

func measureCoherent() float64 {
	k := sim.New()
	k.SetDeadline(1 << 34)
	bus := noc.New(k)
	q := NewCoherentQueue(k, bus, 8)
	tx, rx := q.End(0), q.End(1)
	f := &fig1{
		k:      k,
		openRx: func(sim.Cont) bool { return false },
		push: func(i int, stamp uint64, then sim.Cont) {
			tx.PushThen(mem.Message{Seq: uint64(i), Payload: stamp}, then)
		},
		pop:    rx.PopThen,
		popped: func() uint64 { return rx.Result().Payload },
	}
	f.spawn(func(name string, step func(uint64)) *sim.Task { return k.GoFunc(name, step, 0) })
	k.Run()
	return float64(f.total) / fig1Messages
}

func measureHW(alg string) float64 {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 34})
	q := sys.NewQueue("fig1")
	tx := q.NewProducer(1) // schedules nothing, so it may open before Run
	var rx *spamer.Consumer
	f := &fig1{
		k: sys.Kernel(),
		openRx: func(then sim.Cont) (pending bool) {
			rx, pending = q.NewConsumerThen(2, then)
			return pending
		},
		push: func(_ int, stamp uint64, then sim.Cont) { tx.PushThen(stamp, then) },
		pop:  func(then sim.Cont) { rx.PopThen(then) },
		popped: func() uint64 {
			m, _ := rx.Result()
			return m.Payload
		},
	}
	f.spawn(func(name string, step func(uint64)) *sim.Task { return sys.SpawnFunc(name, step, 0).Task })
	sys.Run()
	return float64(f.total) / fig1Messages
}

// fig1 is one measurement's producer and consumer threads, step
// machines that take turns through two signals. The queue under test
// is reached through the func fields, so the same machines drive the
// coherent queue and the hardware queues.
type fig1 struct {
	k           *sim.Kernel
	sent, acked *sim.Signal
	turn        int // 0: the producer may send; 1: the consumer may pop
	total       uint64

	openRx func(then sim.Cont) (pending bool)       // opens the consumer side; then runs if pending
	push   func(i int, stamp uint64, then sim.Cont) // pushes message i carrying stamp
	pop    func(then sim.Cont)
	popped func() uint64 // the stamp of the message popped last

	tx, rx fig1Thread
}

// fig1Thread is one of the two threads: its Task, its step function
// (bound once), the cell it waits on the turn signals with, and the
// message it is at.
type fig1Thread struct {
	task *sim.Task
	step func(uint64)
	cell sim.WaitCell
	i    int
}

// spawn starts the producer, then the consumer.
func (f *fig1) spawn(spawn func(name string, step func(uint64)) *sim.Task) {
	f.sent, f.acked = sim.NewSignal("fig1.sent"), sim.NewSignal("fig1.acked")
	f.tx.start(f.k, "producer", f.producer, spawn)
	f.rx.start(f.k, "consumer", f.consumer, spawn)
}

func (t *fig1Thread) start(k *sim.Kernel, name string, step func(uint64), spawn func(string, func(uint64)) *sim.Task) {
	t.step = step
	t.cell.Init(k, step)
	t.task = spawn(name, step)
}

// Producer steps.
const (
	txNext   uint64 = iota // stamp and push message i
	txPushed               // message i pushed: hand the turn over
	txAcked                // the turn signal fired: the consumer's ack yet?
)

// producer stamps and pushes each message, hands the turn to the
// consumer and waits for its ack.
func (f *fig1) producer(state uint64) {
	t := &f.tx
	switch state {
	case txNext:
		f.push(t.i, f.k.Now(), sim.Cont{Fn: t.step, Arg: txPushed})
	case txPushed:
		f.turn = 1
		f.sent.Fire()
		fallthrough
	case txAcked:
		if f.turn != 0 {
			f.acked.WaitCell(&t.cell, txAcked)
			return
		}
		if t.i++; t.i == fig1Messages {
			t.task.Exit()
			return
		}
		f.producer(txNext)
	}
}

// Consumer steps.
const (
	rxStart  uint64 = iota // open the endpoint
	rxTurn                 // wait for the turn
	rxPop                  // busy period over: pop
	rxPopped               // message i popped: record its latency, ack
)

// consumer waits for its turn, works for the busy period while the
// message travels, then pops it and records its push-to-use latency.
func (f *fig1) consumer(state uint64) {
	t := &f.rx
	switch state {
	case rxStart:
		if f.openRx(sim.Cont{Fn: t.step, Arg: rxTurn}) {
			return
		}
		fallthrough
	case rxTurn:
		if f.turn != 1 {
			f.sent.WaitCell(&t.cell, rxTurn)
			return
		}
		f.k.AfterFunc(fig1BusyWork, t.step, rxPop)
	case rxPop:
		f.pop(sim.Cont{Fn: t.step, Arg: rxPopped})
	case rxPopped:
		f.total += f.k.Now() - f.popped() - fig1BusyWork
		f.turn = 0
		f.acked.Fire()
		if t.i++; t.i == fig1Messages {
			t.task.Exit()
			return
		}
		f.consumer(rxTurn)
	}
}
