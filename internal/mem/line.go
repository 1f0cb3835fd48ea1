// Package mem models the pieces of the memory hierarchy SPAMeR interacts
// with: consumer/producer endpoint cache lines, their occupancy state
// machine, and the time-integral accounting behind the paper's Figure 9
// (consumer-cacheline empty vs non-empty cycles).
//
// A full coherence protocol is deliberately out of scope: Virtual-Link's
// whole point is that queue traffic bypasses coherent shared state (§2).
// What matters to SPAMeR is whether a consumer line currently holds an
// unconsumed message (a push to it fails) or is empty (a push fills it),
// plus the rare case of an evicted line (also a push failure). That state
// machine, with exact timestamps, is what this package provides.
package mem

import (
	"fmt"

	"spamer/internal/sim"
)

// LineState is the occupancy state of an endpoint cache line.
type LineState uint8

const (
	// LineEmpty means the line is writable: a push (stash) will succeed.
	LineEmpty LineState = iota
	// LineValid means the line holds an unconsumed message: a push fails.
	LineValid
	// LineEvicted means the line lost its cache residency; pushes fail
	// until the owner re-establishes it (touch on next pop).
	LineEvicted
)

func (s LineState) String() string {
	switch s {
	case LineEmpty:
		return "empty"
	case LineValid:
		return "valid"
	case LineEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// Addr is a simulated physical cache-line address.
type Addr uint64

// Message is the unit payload carried through a queue: one cache line.
// Seq is a per-producer sequence number used by correctness checks; Src
// identifies the producing endpoint; Payload is an opaque word standing in
// for the line contents.
type Message struct {
	Src     int
	Seq     uint64
	Payload uint64
}

// Line is one endpoint cache line, split hot/cold: the fields the
// per-message path touches (occupancy state, the message word, the fill
// signal) live here, by value, inside the AddressSpace's dense chunk
// slab; the accounting integrals and trace hooks — read only at
// collection time or on state transitions — live in a parallel cold slab
// (lineStats) reached through one pointer. The split keeps the data a
// push-probe or pop-check actually reads within the first host cache
// lines of the struct, and the OnFill signal lives inline rather than as
// a separate heap object, so checking and waking a line chases no
// pointers.
type Line struct {
	Addr  Addr
	State LineState
	Msg   Message

	k *sim.Kernel

	// OnFill fires when a message lands in the line (consumer wake-up).
	OnFill sim.Signal

	evictedMsg bool // the evicted line held an unconsumed message

	cold *lineStats
}

// lineStats is the cold half of a Line: Figure 9 occupancy integrals,
// Figure 7 trace state, and the eviction/fill counters. Rows live in a
// slab parallel to the line chunks (or alone for NewLine).
type lineStats struct {
	lastChange  uint64 // tick of the last state transition
	emptyTicks  uint64 // accumulated ticks spent empty (or evicted)
	validTicks  uint64 // accumulated ticks spent holding a message
	fills       uint64 // successful pushes into this line
	vacates     uint64 // consumer take-outs
	evictions   uint64
	firstUse    func(tick uint64, msg Message)
	traceVacate func(tick uint64)
	traceFill   func(tick uint64, msg Message)
}

// NewLine returns an empty line at the given address.
func NewLine(k *sim.Kernel, addr Addr) *Line {
	l := &Line{}
	l.init(k, addr, &lineStats{})
	return l
}

// init places an empty line at addr into existing storage, with cold as
// its stats row. AddressSpace uses it to construct lines in place inside
// its dense chunk slab, pairing each line with the matching row of the
// cold slab.
func (l *Line) init(k *sim.Kernel, addr Addr, cold *lineStats) {
	*l = Line{
		Addr:  addr,
		State: LineEmpty,
		k:     k,
		cold:  cold,
	}
	*cold = lineStats{lastChange: k.Now()}
}

// SetTraceHooks installs optional per-event callbacks used by the Figure 7
// tracer. Any hook may be nil.
func (l *Line) SetTraceHooks(fill func(tick uint64, msg Message), vacate func(tick uint64), firstUse func(tick uint64, msg Message)) {
	l.cold.traceFill = fill
	l.cold.traceVacate = vacate
	l.cold.firstUse = firstUse
}

func (l *Line) account() {
	c := l.cold
	d := l.k.Now() - c.lastChange
	if l.State == LineValid {
		c.validTicks += d
	} else {
		c.emptyTicks += d
	}
	c.lastChange = l.k.Now()
}

// TryFill attempts to stash a message into the line, as the routing device
// does at delivery time. It returns true (hit) if the line was empty and
// now holds msg; false (miss) if the line was still valid or evicted.
func (l *Line) TryFill(msg Message) bool {
	if l.State != LineEmpty {
		return false
	}
	l.account()
	l.State = LineValid
	l.Msg = msg
	l.cold.fills++
	if l.cold.traceFill != nil {
		l.cold.traceFill(l.k.Now(), msg)
	}
	l.OnFill.Fire()
	return true
}

// Take removes the message from a valid line, marking it empty (the
// "cacheline vacate" event of Figure 7). It panics if the line is not
// valid — callers must check State or wait on OnFill first.
func (l *Line) Take() Message {
	if l.State != LineValid {
		panic(fmt.Sprintf("mem: Take on %s line %#x", l.State, uint64(l.Addr)))
	}
	l.account()
	msg := l.Msg
	l.State = LineEmpty
	l.Msg = Message{}
	l.cold.vacates++
	if l.cold.traceVacate != nil {
		l.cold.traceVacate(l.k.Now())
	}
	return msg
}

// NoteFirstUse records the consumer's first use of the current message
// (the topmost marker row of Figure 7).
func (l *Line) NoteFirstUse(msg Message) {
	if l.cold.firstUse != nil {
		l.cold.firstUse(l.k.Now(), msg)
	}
}

// Evict models the line losing cache residency: it writes back to
// memory (an unconsumed message is preserved, not lost) and pushes fail
// until Touch re-establishes residency. Waiters parked on OnFill are
// woken so they can observe the eviction and refetch the line — a
// spinning consumer's next load would miss and bring it back.
func (l *Line) Evict() {
	if l.State == LineEvicted {
		return
	}
	l.account()
	l.evictedMsg = l.State == LineValid
	l.State = LineEvicted
	l.cold.evictions++
	l.OnFill.Fire()
}

// Touch re-establishes residency of an evicted line, restoring the
// written-back message if one was present. No-op for resident lines.
func (l *Line) Touch() {
	if l.State != LineEvicted {
		return
	}
	l.account()
	if l.evictedMsg {
		l.State = LineValid
		l.evictedMsg = false
		l.OnFill.Fire()
	} else {
		l.State = LineEmpty
	}
}

// Occupancy returns the accumulated (emptyTicks, validTicks) including the
// in-progress interval up to the current tick.
func (l *Line) Occupancy() (empty, valid uint64) {
	c := l.cold
	d := l.k.Now() - c.lastChange
	empty, valid = c.emptyTicks, c.validTicks
	if l.State == LineValid {
		valid += d
	} else {
		empty += d
	}
	return empty, valid
}

// Fills reports the number of successful pushes into the line.
func (l *Line) Fills() uint64 { return l.cold.fills }

// Vacates reports the number of Take calls.
func (l *Line) Vacates() uint64 { return l.cold.vacates }

// Evictions reports the number of Evict calls that changed state.
func (l *Line) Evictions() uint64 { return l.cold.evictions }
