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
	f.spawn(k.GoFunc)
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
	f.spawn(sys.SpawnFunc)
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

	// The producer and consumer threads, the cells they wait on the
	// turn signals with, and the message each is at.
	tx, rx         *sim.Task
	txCell, rxCell sim.WaitCell
	txI, rxI       int
}

// spawn starts the producer, then the consumer, with spawn
// (Kernel.GoFunc or System.SpawnFunc).
func (f *fig1) spawn(spawn func(name string, fn func(uint64), arg uint64) *sim.Task) {
	f.sent, f.acked = sim.NewSignal("fig1.sent"), sim.NewSignal("fig1.acked")
	tx, rx := f.producer, f.consumer
	f.txCell.Init(f.k, tx)
	f.rxCell.Init(f.k, rx)
	f.tx = spawn("producer", tx, txNext)
	f.rx = spawn("consumer", rx, rxStart)
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
	switch state {
	case txNext:
		f.push(f.txI, f.k.Now(), f.tx.Then(txPushed))
	case txPushed:
		f.turn = 1
		f.sent.Fire()
		fallthrough
	case txAcked:
		if f.turn != 0 {
			f.acked.WaitCell(&f.txCell, txAcked)
			return
		}
		if f.txI++; f.txI == fig1Messages {
			f.tx.Exit()
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
	switch state {
	case rxStart:
		if f.openRx(f.rx.Then(rxTurn)) {
			return
		}
		fallthrough
	case rxTurn:
		if f.turn != 1 {
			f.sent.WaitCell(&f.rxCell, rxTurn)
			return
		}
		f.rx.Compute(fig1BusyWork, rxPop)
	case rxPop:
		f.pop(f.rx.Then(rxPopped))
	case rxPopped:
		f.total += f.k.Now() - f.popped() - fig1BusyWork
		f.turn = 0
		f.acked.Fire()
		if f.rxI++; f.rxI == fig1Messages {
			f.rx.Exit()
			return
		}
		f.consumer(rxTurn)
	}
}
