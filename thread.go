package spamer

import (
	"spamer/internal/mem"
	"spamer/internal/sim"
)

// Message is a popped message: its producer endpoint (Src), that
// endpoint's sequence number (Seq) and the payload.
type Message = mem.Message

// Source and Stage are the two ready-made threads. Each is a state
// machine on SpawnFunc: its steps are kernel events and the
// continuations of the queue operations (PushThen, PopThen, ...), so a
// message costs no host thread switch. Fill in the exported fields and
// call Spawn once, before Run. Each Work charge is one event and each
// queue operation and endpoint open happens in the order a thread
// written as a loop would make it, so the dispatch trace is that loop's
// (the golden traces of internal/workloads pin it). Write any other
// control flow as a SpawnFunc step machine of your own.

// Source is a closed-loop producer thread: for each of N messages it
// charges Work cycles and pushes the message index as the payload, and
// after every Burst messages (0: never) it idles Burst*Work cycles.
type Source struct {
	Out    *Queue // the queue it pushes to
	Window int    // producer window; 0 selects the library default
	N      int    // messages to push
	Work   uint64 // local work before each push; 0 charges nothing
	Burst  int    // burst length; 0 pushes without idling

	task *sim.Task
	tx   *Producer
	i    int // messages pushed
}

// Stage is a consumer thread: a sink, a relay or a WorkCounter worker.
// It opens its endpoint on In (registering it on a SPAMeR system), then,
// with Out set, a producer endpoint on Out. It pops N messages, or, with
// Shared set, takes from the shared count until it runs out. For each
// message it calls OnPop, if set, charges Work cycles and, with Out set,
// pushes the payload OnPop returned (without OnPop, the popped payload).
type Stage struct {
	In     *Queue
	Lines  int // input endpoint lines; 0 opens one
	Out    *Queue
	Window int          // output producer window; 0 selects the default
	N      int          // messages to pop, unless Shared is set
	Shared *WorkCounter // take from this count instead of popping N
	Work   uint64       // local work per message; 0 charges nothing
	// OnPop sees each popped message and returns the payload to forward.
	OnPop func(m Message) uint64

	task *sim.Task
	rx   *Consumer
	tx   *Producer
	fwd  uint64 // payload to forward
	i    int    // messages taken
}

// Spawn adds the source to sys as a thread on a core of its own; its
// first step runs at tick 0. It panics once Run has been called.
func (m *Source) Spawn(sys *System, name string) *sim.Task {
	m.task = sys.SpawnFunc(name, m.run, 0)
	return m.task
}

// Source steps.
const (
	srcStart  uint64 = iota // open the endpoint
	srcNext                 // charge message i's work, or exit after the last
	srcPush                 // push message i
	srcPushed               // message i pushed: idle at a burst boundary
	srcDone                 // message i done
)

func (m *Source) run(state uint64) {
	switch state {
	case srcStart:
		m.tx = m.Out.NewProducer(m.Window)
		fallthrough
	case srcNext:
		if m.i == m.N {
			m.task.Exit()
			return
		}
		m.task.Compute(m.Work, srcPush)
	case srcPush:
		m.tx.PushThen(uint64(m.i), m.task.Then(srcPushed))
	case srcPushed:
		if m.Burst > 0 && (m.i+1)%m.Burst == 0 {
			m.task.Compute(uint64(m.Burst)*m.Work, srcDone)
			return
		}
		fallthrough
	case srcDone:
		m.i++
		m.run(srcNext)
	}
}

// Spawn adds the stage to sys as a thread on a core of its own; its
// first step runs at tick 0. It panics once Run has been called.
func (m *Stage) Spawn(sys *System, name string) *sim.Task {
	m.task = sys.SpawnFunc(name, m.run, 0)
	return m.task
}

// Stage steps.
const (
	stStart   uint64 = iota // open the input endpoint
	stOpened                // input endpoint registered: open the output
	stNext                  // pop (or take) message i, or exit
	stTook                  // a take completed: exit if the count ran out
	stPopped                // message i popped: hand it to OnPop, charge its work
	stForward               // forward message i on Out
	stDone                  // message i done
)

func (m *Stage) run(state uint64) {
	switch state {
	case stStart:
		var pending bool
		m.rx, pending = m.In.NewConsumerThen(m.Lines, m.task.Then(stOpened))
		if pending {
			return
		}
		fallthrough
	case stOpened:
		if m.Out != nil {
			m.tx = m.Out.NewProducer(m.Window)
		}
		fallthrough
	case stNext:
		if m.Shared != nil {
			if !m.Shared.TakeThen(m.rx, m.task.Then(stTook)) {
				m.task.Exit()
			}
			return
		}
		if m.i == m.N {
			m.task.Exit()
			return
		}
		m.rx.PopThen(m.task.Then(stPopped))
	case stTook:
		if _, ok := m.rx.Result(); !ok {
			m.task.Exit()
			return
		}
		fallthrough
	case stPopped:
		msg, _ := m.rx.Result()
		m.fwd = msg.Payload
		if m.OnPop != nil {
			m.fwd = m.OnPop(msg)
		}
		m.task.Compute(m.Work, stForward)
	case stForward:
		if m.tx != nil {
			m.tx.PushThen(m.fwd, m.task.Then(stDone))
			return
		}
		fallthrough
	case stDone:
		m.i++
		m.run(stNext)
	}
}
