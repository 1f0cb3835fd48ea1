// Package vl implements the Virtual-Link routing device (VLRD) of
// Wu et al., "Virtual-Link: A Scalable Multi-Producer Multi-Consumer
// Message Queue Architecture for Cross-Core Communication" (IPDPS 2021),
// as described in §2–§3.1 of the SPAMeR paper — the baseline SPAMeR
// extends.
//
// The device owns three fixed-size hardware structures (Table 1: 64
// entries each):
//
//   - prodBuf: producer data buffered after a vl_push is accepted;
//   - consBuf: pending consumer requests entered by vl_fetch;
//   - linkTab: per-SQI metadata — head/tail of the consumer-request list
//     and head/tail of the producer buffering queue.
//
// Producer entries flow through a three-stage address-mapping pipeline
// (Figure 4) and then take one of the paths of Figure 5:
//
//	(A) speculative push queue  — via the SpecExtension (SPAMeR only);
//	(B) per-SQI buffering queue — no consumer request available;
//	(C) sending queue           — matched with a consumer request.
//
// A stash that reaches a consumer line which is still valid (or evicted)
// draws a miss response, and the prodBuf entry is dispatched again — the
// retry loop of Figure 5 (see Device.handleResponse).
package vl

import (
	"fmt"

	"spamer/internal/mem"
)

// SQI is a Shared Queue Identifier. SQI 0 is reserved as the invalid
// sentinel (the Stage-3 multiplexer of Figure 4 treats index 0 as "no
// consumer request").
type SQI int

// nilIdx marks an empty head/tail/next pointer inside the device tables.
const nilIdx = -1

// chain is one of the device's queues: a head/tail register pair over
// the entries of one table, linked through that table's next column
// (Device.prodNext or Device.consNext). The input queue, the sending
// queue, and each linkTab row's buffering queue and request list are
// chains.
type chain struct{ head, tail int }

// emptyChain holds no entry.
var emptyChain = chain{nilIdx, nilIdx}

// push links idx in at the tail.
func (c *chain) push(next []int, idx int) {
	next[idx] = nilIdx
	if c.tail == nilIdx {
		c.head = idx
	} else {
		next[c.tail] = idx
	}
	c.tail = idx
}

// pushFront links idx in at the head.
func (c *chain) pushFront(next []int, idx int) {
	next[idx] = c.head
	c.head = idx
	if c.tail == nilIdx {
		c.tail = idx
	}
}

// pop unlinks the head and returns it, or nilIdx when the chain is
// empty.
func (c *chain) pop(next []int) int {
	idx := c.head
	if idx != nilIdx {
		c.head = next[idx]
		if c.head == nilIdx {
			c.tail = nilIdx
		}
	}
	return idx
}

// len counts the entries.
func (c chain) len(next []int) int {
	n := 0
	for idx := c.head; idx != nilIdx; idx = next[idx] {
		n++
	}
	return n
}

// entryState tracks where a prodBuf entry currently lives.
type entryState uint8

const (
	entryFree       entryState = iota
	entryInput                 // producer input queue (between PIHR and PITR)
	entryMapping               // inside the address-mapping pipeline
	entryBuffered              // per-SQI buffering queue (Path B)
	entrySpecWait              // speculative push queue, waiting its send tick (Path A)
	entrySendQueued            // sending queue (Path C)
	entryInFlight              // stash issued, awaiting hit/miss response
)

func (s entryState) String() string {
	switch s {
	case entryFree:
		return "free"
	case entryInput:
		return "input"
	case entryMapping:
		return "mapping"
	case entryBuffered:
		return "buffered"
	case entrySpecWait:
		return "spec-wait"
	case entrySendQueued:
		return "send-queued"
	case entryInFlight:
		return "in-flight"
	default:
		return fmt.Sprintf("entryState(%d)", uint8(s))
	}
}

// prodEntry is one prodBuf slot. The producer packet "never leaves the
// prodBuf entry initially allocated to it" (§3.1); it joins and leaves
// queues as a link in the input, buffering and sending chains.
type prodEntry struct {
	state entryState
	sqi   SQI
	msg   mem.Message

	target mem.Addr // resolved destination line (0 until mapped)
	spec   bool     // true if the current target came from the spec path
	cookie int      // spec-extension cookie for response attribution
}

// consEntry is one consBuf slot: a registered consumer request.
type consEntry struct {
	used   bool
	sqi    SQI
	target mem.Addr
}

// linkRow is one linkTab row: the per-SQI metadata.
type linkRow struct {
	used bool
	reqs chain // consumer-request list, over consNext
	buf  chain // producer buffering queue, over prodNext
}

// SpecExtension is the hook the SPAMeR SRD implements (internal/core).
// A nil extension yields the plain Virtual-Link device.
type SpecExtension interface {
	// Register records a segment of n consumer lines starting at base as
	// speculative push targets for sqi (the spamer_register write, §3.3).
	Register(sqi SQI, base mem.Addr, n int) error

	// SelectTarget picks a speculative target for sqi at the Stage-3
	// write-back, returning the destination line address, an opaque
	// cookie for OnResult, and the absolute tick at which the push
	// should issue. ok is false when no valid, non-on-fly entry exists
	// for the SQI.
	SelectTarget(sqi SQI, now uint64) (addr mem.Addr, cookie int, sendTick uint64, ok bool)

	// OnResult reports the hit/miss response of a speculative push
	// previously issued with cookie.
	OnResult(cookie int, hit bool, now uint64)

	// Unregister drops every speculative target of an SQI (endpoint
	// teardown / SQI free).
	Unregister(sqi SQI)
}

// Config controls device capacity; zero values fall back to Table 1.
type Config struct {
	ProdEntries int // prodBuf capacity (default 64)
	ConsEntries int // consBuf capacity (default 64)
	LinkEntries int // linkTab rows, i.e. max simultaneous SQIs (default 64)
}
