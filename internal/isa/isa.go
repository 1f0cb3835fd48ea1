// Package isa models the instruction-set extension of Virtual-Link and
// SPAMeR (§3.3): vl_select, vl_push, vl_fetch, and the vl_fetch alias
// spamer_register. Each operation costs core-side cycles
// (config.VLSelectCycles, VLPushCycles, VLFetchCycles, SpamerRegCycles)
// and, where architecturally required, a packet on the coherence network
// addressed to the routing device's device-memory range.
//
// Each operation is two halves. NoteX runs at the op's issue tick (the
// counter bump), and EnqueueX (SendRegister for spamer_register), the
// device write, runs once the op's core-side cycles have elapsed. The
// vlq endpoint state machines charge those cycles with their own
// AfterFunc events and call the halves from the kernel goroutine.
//
// vl_push and vl_fetch are posted operations: the core does not stall for
// the round trip. Backpressure appears as NACKs (prodBuf/consBuf
// exhausted), which the implementation retries transparently with
// backoff — the micro-architectural analogue of a store buffer replaying
// a rejected device write.
package isa

import (
	"fmt"
	"sync"

	"spamer/internal/blocks"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/vl"
)

// RetryBackoffCycles spaces out replays of NACKed device writes.
const RetryBackoffCycles = 12

// MaxRetries bounds replay attempts before the operation panics; a
// healthy configuration never gets near it, so hitting the bound almost
// always means a deadlocked workload.
const MaxRetries = 1 << retryBits

// retryBits is the width of the attempt count in a packed sender event
// argument (sender id in the high bits, attempt below).
const retryBits = 20

// retryMask extracts the attempt count from a packed event argument.
const retryMask = MaxRetries - 1

// ISA issues the VL/SPAMeR operations against one routing device.
type ISA struct {
	k   *sim.Kernel
	bus *noc.Bus
	dev *vl.Device

	// Senders live in block arena storage and share two ISA-level
	// dispatch closures; the sender id and attempt count ride packed in
	// the event argument (id<<retryBits | attempt), so opening an
	// endpoint costs no per-sender closure allocations and a block of
	// endpoints costs one. senders indexes the arena by id for the
	// delivery path.
	senders   []*Sender
	arena     blocks.Arena[Sender]
	deliverFn func(uint64)
	replayFn  func(uint64)

	// regs holds the operands of the spamer_register writes in flight,
	// indexed by their delivery event's argument, so a registration
	// schedules no closure. regsDone counts delivered entries; the slice
	// is reused once every entry is delivered, so an index stays valid
	// while its write is in flight.
	regs       []regOp
	regsDone   int
	registerFn func(uint64)

	stats Stats
}

// regOp is one spamer_register write in data form.
type regOp struct {
	sqi  vl.SQI
	base mem.Addr
	n    int
}

// Stats counts issued operations and replayed NACKs.
type Stats struct {
	Selects   uint64
	Pushes    uint64
	Fetches   uint64
	Registers uint64
	Replays   uint64
}

// isas holds released ISAs for New to reuse (see Release).
var isas sync.Pool

// New returns an ISA bound to the given device. It reuses the storage of
// a released ISA when the pool holds one.
func New(k *sim.Kernel, bus *noc.Bus, dev *vl.Device) *ISA {
	i, _ := isas.Get().(*ISA)
	if i == nil {
		i = new(ISA)
	}
	i.init(k, bus, dev)
	return i
}

// init binds the ISA to its device with no senders and zeroed counters.
// It keeps the sender blocks, index and register buffer a released ISA
// brings (which Release emptied), and the dispatch closures, which
// capture only the ISA, so a fresh and a recycled ISA start from the
// same state.
func (i *ISA) init(k *sim.Kernel, bus *noc.Bus, dev *vl.Device) {
	i.k, i.bus, i.dev = k, bus, dev
	if cap(i.senders) == 0 {
		i.senders = make([]*Sender, 0, blocks.Size)
	}
	i.senders = i.senders[:0]
	i.regs, i.regsDone = i.regs[:0], 0
	i.stats = Stats{}
	if i.deliverFn == nil {
		i.deliverFn = func(a uint64) { i.senders[a>>retryBits].delivered(a & retryMask) }
		i.replayFn = func(a uint64) { i.senders[a>>retryBits].deliver(int(a & retryMask)) }
		i.registerFn = i.registered
	}
}

// Release hands the ISA's storage to a later New. Call it only when
// nothing will touch the ISA or a Sender from it again: the next ISA may
// already own the storage. It first zeroes every sender, which drops the
// queued writes' acceptance callbacks, and the kernel, bus and device
// references, so a pooled ISA keeps no earlier simulation alive.
func (i *ISA) Release() {
	i.arena.Reset()
	clear(i.senders)
	i.k, i.bus, i.dev = nil, nil, nil
	isas.Put(i)
}

// Stats returns a snapshot of the operation counters.
func (i *ISA) Stats() Stats { return i.stats }

// Device returns the routing device operations are addressed to.
func (i *ISA) Device() *vl.Device { return i.dev }

// Sender issues the device writes of one endpoint in order, replaying
// NACKed writes without letting younger writes of the same endpoint
// overtake them — store-buffer semantics. Without this ordering, a
// replayed vl_push could land behind a younger push of the same producer
// and break per-producer FIFO delivery.
//
// Writes of different endpoints use different Senders and interleave
// freely, as they would from different cores.
type Sender struct {
	i    *ISA
	id   int // index into i.senders; high bits of packed event args
	kind noc.PacketKind
	q    []senderOp
	head int // q[:head] are accepted; the array is reused, not resliced away
	busy bool
}

// senderOp is one queued device write in data form — the operands are
// stored, not captured in a closure, so the push/fetch hot path
// allocates nothing per message.
type senderOp struct {
	sqi      vl.SQI
	msg      mem.Message // push payload
	target   mem.Addr    // fetch target
	accepted func()      // runs at the acceptance tick; may be nil
	push     bool        // true = vl_push, false = vl_fetch
}

// NewPushSender returns the ordered vl_push channel of one producer
// endpoint.
func (i *ISA) NewPushSender() *Sender { return newSender(i, noc.PktPush) }

// NewFetchSender returns the ordered vl_fetch channel of one consumer
// endpoint.
func (i *ISA) NewFetchSender() *Sender { return newSender(i, noc.PktFetchReq) }

func newSender(i *ISA, kind noc.PacketKind) *Sender {
	s := i.arena.New()
	*s = Sender{i: i, id: len(i.senders), kind: kind}
	i.senders = append(i.senders, s)
	return s
}

func (s *Sender) enqueue(op senderOp) {
	if s.head > 0 && len(s.q) == cap(s.q) {
		// Compact the accepted prefix away before growing, so a sender
		// that never fully drains still reaches a steady-state array.
		n := copy(s.q, s.q[s.head:])
		for i := n; i < len(s.q); i++ {
			s.q[i] = senderOp{}
		}
		s.q = s.q[:n]
		s.head = 0
	}
	s.q = append(s.q, op)
	s.issue()
}

func (s *Sender) issue() {
	if s.busy || s.head == len(s.q) {
		return
	}
	s.busy = true
	s.deliver(0)
}

func (s *Sender) deliver(attempt int) {
	s.i.bus.SendFunc(s.kind, s.i.deliverFn, uint64(s.id)<<retryBits|uint64(attempt))
}

// delivered runs at the packet's arrival tick. The head op is read here
// rather than captured at issue time: the busy flag guarantees a single
// in-flight delivery per sender, and enqueue only appends, so q[head] at
// arrival is the op that was issued.
func (s *Sender) delivered(attempt uint64) {
	op := s.q[s.head]
	var ok bool
	if op.push {
		ok = s.i.dev.Push(op.sqi, op.msg)
	} else {
		// A NACKed fetch once every thread has exited is a dangling
		// prerequest: no pop will take its fill, so it is dropped
		// instead of replaying until the replay bound fails a run
		// whose work is done.
		ok = s.i.dev.Fetch(op.sqi, op.target) || s.i.k.LiveProcs() == 0
	}
	if ok {
		s.q[s.head] = senderOp{}
		s.head++
		if s.head == len(s.q) {
			s.q, s.head = s.q[:0], 0
		}
		s.busy = false
		if op.accepted != nil {
			op.accepted()
		}
		s.issue()
		return
	}
	if attempt+1 >= MaxRetries {
		panic(fmt.Sprintf("isa: device-write replay bound exceeded on sqi %d (deadlocked workload?)", op.sqi))
	}
	s.i.stats.Replays++
	s.i.k.AfterFunc(RetryBackoffCycles, s.i.replayFn, uint64(s.id)<<retryBits|(attempt+1))
}

// Pending reports queued-but-unaccepted writes (tests/diagnostics).
func (s *Sender) Pending() int { return len(s.q) - s.head }

// NoteSelect models vl_select: translate a line's virtual address into
// the system register only vl_push/vl_fetch may read. Pure core-side
// cost, charged by the caller; this is the bookkeeping.
func (i *ISA) NoteSelect() { i.stats.Selects++ }

// NotePush is the issue half of vl_push.
func (i *ISA) NotePush() { i.stats.Pushes++ }

// NoteFetch is the issue half of vl_fetch.
func (i *ISA) NoteFetch() { i.stats.Fetches++ }

// EnqueuePush is the completion half of vl_push: copy the selected
// line's content to the routing device, without changing the line's
// coherence state, through the endpoint's ordered sender. Posted:
// delivery and NACK replay proceed asynchronously. accepted runs (at the
// acceptance tick) once the device takes ownership; it may be nil.
func (i *ISA) EnqueuePush(snd *Sender, sqi vl.SQI, msg mem.Message, accepted func()) {
	snd.enqueue(senderOp{sqi: sqi, msg: msg, accepted: accepted, push: true})
}

// EnqueueFetch is the completion half of vl_fetch: write the selected
// consumer-line physical address to the device-memory range of consBuf
// through the endpoint's ordered sender. Posted; NACKs replay in order.
func (i *ISA) EnqueueFetch(snd *Sender, sqi vl.SQI, target mem.Addr) {
	snd.enqueue(senderOp{sqi: sqi, target: target})
}

// NoteRegister is the issue half of spamer_register.
func (i *ISA) NoteRegister() { i.stats.Registers++ }

// SendRegister is the completion half of spamer_register: "a vl_fetch
// instruction writing to specBuf" (§3.3), sent once the caller's charged
// cycles have elapsed. Registration failures are configuration errors
// (specBuf exhausted) and surface as panics at delivery time; the §4.5
// position is that the OS must manage specBuf like any limited resource.
func (i *ISA) SendRegister(sqi vl.SQI, base mem.Addr, n int) {
	i.regs = append(i.regs, regOp{sqi: sqi, base: base, n: n})
	i.bus.SendFunc(noc.PktRegister, i.registerFn, uint64(len(i.regs)-1))
}

// registered runs at a registration packet's arrival tick.
func (i *ISA) registered(idx uint64) {
	op := i.regs[idx]
	i.regsDone++
	if i.regsDone == len(i.regs) {
		i.regs, i.regsDone = i.regs[:0], 0
	}
	if err := i.dev.Register(op.sqi, op.base, op.n); err != nil {
		panic(err)
	}
}
