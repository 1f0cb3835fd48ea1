// Package isa models the instruction-set extension of Virtual-Link and
// SPAMeR (§3.3): vl_select, vl_push, vl_fetch, and the vl_fetch alias
// spamer_register. Each operation costs core-side cycles (charged to the
// calling process) and, where architecturally required, a packet on the
// coherence network addressed to the routing device's device-memory
// range.
//
// vl_push and vl_fetch are posted operations: the core does not stall for
// the round trip. Backpressure appears as NACKs (prodBuf/consBuf
// exhausted), which the implementation retries transparently with
// backoff — the micro-architectural analogue of a store buffer replaying
// a rejected device write.
package isa

import (
	"fmt"
	"spamer/internal/config"
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

// senderArenaBlock sizes the sender arena: a system opens a few endpoints
// per queue (one producer and one consumer side), so one block covers
// typical workloads and heavy ones amortize.
const senderArenaBlock = 16

// ISA issues the VL/SPAMeR operations against one routing device.
type ISA struct {
	k   *sim.Kernel
	bus *noc.Bus
	dev *vl.Device

	// Senders live in block-allocated arena storage and share two
	// ISA-level dispatch closures; the sender id and attempt count ride
	// packed in the event argument (id<<retryBits | attempt), so
	// opening an endpoint costs no per-sender closure allocations and
	// a block of endpoints costs one.
	senders   []*Sender
	arena     []Sender
	deliverFn func(uint64)
	replayFn  func(uint64)

	stats Stats
}

// Stats counts issued operations and replayed NACKs.
type Stats struct {
	Selects   uint64
	Pushes    uint64
	Fetches   uint64
	Registers uint64
	Replays   uint64
}

// New returns an ISA bound to the given device.
func New(k *sim.Kernel, bus *noc.Bus, dev *vl.Device) *ISA {
	i := &ISA{k: k, bus: bus, dev: dev}
	i.arena = make([]Sender, 0, senderArenaBlock)
	i.senders = make([]*Sender, 0, senderArenaBlock)
	i.deliverFn = func(a uint64) { i.senders[a>>retryBits].delivered(a & retryMask) }
	i.replayFn = func(a uint64) { i.senders[a>>retryBits].deliver(int(a & retryMask)) }
	return i
}

// Stats returns a snapshot of the operation counters.
func (i *ISA) Stats() Stats { return i.stats }

// Device returns the routing device operations are addressed to.
func (i *ISA) Device() *vl.Device { return i.dev }

// Select models vl_select: translate a line's virtual address into the
// system register only vl_push/vl_fetch may read. Pure core-side cost.
func (i *ISA) Select(p *sim.Proc) {
	i.stats.Selects++
	p.Sleep(config.VLSelectCycles)
}

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
	if len(i.arena) == cap(i.arena) {
		// A fresh block: existing senders keep pointing into old blocks.
		i.arena = make([]Sender, 0, senderArenaBlock)
	}
	i.arena = i.arena[:len(i.arena)+1]
	s := &i.arena[len(i.arena)-1]
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
		ok = s.i.dev.Fetch(op.sqi, op.target)
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

// Push models vl_push through the endpoint's ordered sender: copy the
// selected line's content to the routing device without changing the
// line's coherence state. The calling process is charged the issue cost;
// delivery and NACK replay proceed asynchronously. accepted runs (at the
// acceptance tick) once the device takes ownership; it may be nil.
func (i *ISA) Push(p *sim.Proc, snd *Sender, sqi vl.SQI, msg mem.Message, accepted func()) {
	i.stats.Pushes++
	p.Sleep(config.VLPushCycles)
	snd.enqueue(senderOp{sqi: sqi, msg: msg, accepted: accepted, push: true})
}

// Fetch models vl_fetch through the endpoint's ordered sender: write the
// selected consumer-line physical address to the device-memory range of
// consBuf. Posted; NACKs replay in order.
func (i *ISA) Fetch(p *sim.Proc, snd *Sender, sqi vl.SQI, target mem.Addr) {
	i.stats.Fetches++
	p.Sleep(config.VLFetchCycles)
	snd.enqueue(senderOp{sqi: sqi, target: target})
}

// Continuation-passing forms. The blocking forms above charge the op's
// core-side cycles with p.Sleep, splitting each op across a goroutine
// handoff; the vlq endpoint state machines instead charge the same cycles
// with their own AfterFunc events and call these halves directly from the
// kernel goroutine. NoteX runs at the op's issue tick (the counter bump
// the blocking form does before its Sleep); EnqueueX runs when the
// charged cycles have elapsed (the device write the blocking form does
// after its Sleep returns). The split leaves the event schedule — and
// therefore the dispatch trace — bit-identical to the blocking forms.

// NoteSelect is the continuation-passing half of Select: issue
// bookkeeping only, cycles charged by the caller's own event.
func (i *ISA) NoteSelect() { i.stats.Selects++ }

// NotePush is the continuation-passing issue half of Push.
func (i *ISA) NotePush() { i.stats.Pushes++ }

// NoteFetch is the continuation-passing issue half of Fetch.
func (i *ISA) NoteFetch() { i.stats.Fetches++ }

// EnqueuePush is the continuation-passing completion half of Push: the
// device write, issued once the caller's charged cycles have elapsed.
func (i *ISA) EnqueuePush(snd *Sender, sqi vl.SQI, msg mem.Message, accepted func()) {
	snd.enqueue(senderOp{sqi: sqi, msg: msg, accepted: accepted, push: true})
}

// EnqueueFetch is the continuation-passing completion half of Fetch.
func (i *ISA) EnqueueFetch(snd *Sender, sqi vl.SQI, target mem.Addr) {
	snd.enqueue(senderOp{sqi: sqi, target: target})
}

// Register models spamer_register: "a vl_fetch instruction writing to
// specBuf" (§3.3). Registration failures are configuration errors
// (specBuf exhausted) and surface as panics at delivery time; the §4.5
// position is that the OS must manage specBuf like any limited resource.
func (i *ISA) Register(p *sim.Proc, sqi vl.SQI, base mem.Addr, n int) {
	i.stats.Registers++
	p.Sleep(config.SpamerRegCycles)
	i.bus.Send(noc.PktRegister, func() {
		if err := i.dev.Register(sqi, base, n); err != nil {
			panic(err)
		}
	})
}
