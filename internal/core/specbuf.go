// Package core implements the SPAMeR contribution on top of the
// Virtual-Link routing device: the specBuf structure, the linkTabSpec
// specHead chaining, the on-fly throttle, and the delay-prediction
// algorithms of §3.5 (0-delay, adaptive, and the tuned algorithm of
// Listing 1). Assembling a vl.Device with this extension yields the
// SPAMeR Routing Device (SRD) of Figure 4.
package core

import (
	"fmt"
	"sync"

	"spamer/internal/blocks"
	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/vl"
)

// SpecEntry is one specBuf row (Figure 4, red): a registered segment of
// consumer lines the SRD may speculatively push to, plus the prediction
// state the tuned algorithm latches per entry (Figure 6, yellow).
//
// SpecEntry is the inspection snapshot returned by Entry; the buffer
// itself stores rows struct-of-arrays (see SpecBuf).
type SpecEntry struct {
	Valid bool
	SQI   vl.SQI

	// Base and Len describe the segment: Base + i*LineBytes for
	// i in [0, Len).
	Base mem.Addr
	Len  int

	// Offset counts successful pushes, rotating through the segment:
	// "incrementing every time data is pushed to a consumer cacheline
	// successfully … at which point it is set to zero" (§3.2).
	Offset int

	// Next chains entries of the same SQI into a loop; Stage 3 advances
	// the SQI's specHead along it so "all the specBuf entry of a SQI
	// form a loop and are used in turn".
	Next int

	// OnFly is the throttle bit of §3.5: while a push from this entry is
	// in the speculative push queue, the entry stops giving targets.
	OnFly bool

	// Pred is the per-entry delay-prediction state.
	Pred PredState
}

// PredState carries the delay-prediction registers. The adaptive
// algorithm uses only Delay; the tuned algorithm uses every field
// (specBuf.nfills/last/ddl/failed/delay of Figure 6).
type PredState struct {
	Delay  uint64 // current predicted delay (cycles)
	Last   uint64 // timestamp of the last successful push
	DDL    uint64 // deadline (duration from Last) before multiplicative growth
	NFills uint64 // successful-push count
	Failed bool   // whether the previous push missed
}

// entry flag bits packed into SpecBuf.flags: one byte per entry holds
// both the Valid and OnFly bits, so the Stage-2/3 select walk reads one
// dense byte array instead of striding over fat rows.
const (
	entValid uint8 = 1 << 0
	entOnFly uint8 = 1 << 1
)

// SpecBuf is the speculative-target store plus the specHead column that
// linkTabSpec adds to linkTab.
//
// Rows are stored struct-of-arrays: the select walk of SelectTarget
// touches only flags (valid|on-fly, one byte per entry) and next (the
// SQI loop links, four bytes per entry) — for the 64-entry Table 1
// configuration that is two cache lines of the host in total, versus one
// line per entry with array-of-structs rows. The remaining columns
// (segment geometry, prediction state) are read only for the entry the
// walk settles on.
type SpecBuf struct {
	flags []uint8  // hot: entValid|entOnFly per entry
	next  []int32  // hot: circular per-SQI loop links
	sqi   []vl.SQI // cold columns, indexed like flags
	base  []mem.Addr
	size  []int32 // registered segment length (lines)
	off   []int32 // next push offset within the segment
	pred  []PredState

	free []int32
	// specHead is the linkTabSpec.specHead column, indexed directly by
	// SQI. The SQI space is small and bounded by config, so a dense slice
	// (-1 = no entries) replaces the previous map and keeps Stage 3's
	// target selection free of map hashing. The slice grows on demand to
	// the highest SQI ever registered.
	specHead []int32

	live      int // currently valid entries
	highWater int // maximum simultaneously valid entries ever
	alg       DelayAlgorithm
}

// specBufs holds released specBufs for NewSpecBuf to reuse (see
// Release).
var specBufs sync.Pool

// NewSpecBuf returns a specBuf with n entries (Table 1: 64) driven by the
// given delay-prediction algorithm. It reuses the columns of a released
// specBuf when the pool holds one.
func NewSpecBuf(n int, alg DelayAlgorithm) *SpecBuf {
	if n <= 0 {
		n = config.SRDEntries
	}
	b, _ := specBufs.Get().(*SpecBuf)
	if b == nil {
		b = new(SpecBuf)
	}
	b.init(n, alg)
	return b
}

// init empties the buffer with n entries under alg, reusing the columns
// a released buffer brings when they hold n entries, so a fresh and a
// recycled buffer start from the same state.
func (b *SpecBuf) init(n int, alg DelayAlgorithm) {
	*b = SpecBuf{
		flags:    blocks.Resize(b.flags, n),
		next:     blocks.Resize(b.next, n),
		sqi:      blocks.Resize(b.sqi, n),
		base:     blocks.Resize(b.base, n),
		size:     blocks.Resize(b.size, n),
		off:      blocks.Resize(b.off, n),
		pred:     blocks.Resize(b.pred, n),
		free:     blocks.Resize(b.free, n),
		specHead: b.specHead[:0],
		alg:      alg,
	}
	for i := range b.free {
		b.free[i] = int32(n - 1 - i) // entry 0 is taken first
	}
}

// Release hands the buffer's columns to a later NewSpecBuf. Call it only
// when nothing will touch the buffer again: the next buffer may already
// own them. The columns hold only values, so dropping the algorithm
// leaves a pooled buffer referring to nothing.
func (b *SpecBuf) Release() {
	b.alg = nil
	specBufs.Put(b)
}

// Algorithm returns the installed delay-prediction algorithm.
func (b *SpecBuf) Algorithm() DelayAlgorithm { return b.alg }

// headOf reads the specHead of an SQI; ok is false when the SQI has no
// registered entries.
func (b *SpecBuf) headOf(sqi vl.SQI) (int, bool) {
	if int(sqi) >= len(b.specHead) || b.specHead[sqi] < 0 {
		return 0, false
	}
	return int(b.specHead[sqi]), true
}

// setHead records idx as the specHead of sqi, growing the dense column
// (filled with the -1 sentinel) the first time a high SQI appears.
func (b *SpecBuf) setHead(sqi vl.SQI, idx int) {
	for int(sqi) >= len(b.specHead) {
		b.specHead = append(b.specHead, -1)
	}
	b.specHead[sqi] = int32(idx)
}

// Register implements vl.SpecExtension: one spamer_register call creates
// one specBuf entry covering n lines from base, linked into the SQI's
// circular Next chain. The per-entry prediction state starts in the
// algorithm's initial condition.
func (b *SpecBuf) Register(sqi vl.SQI, base mem.Addr, n int) error {
	if n <= 0 {
		return fmt.Errorf("core: register with %d lines", n)
	}
	if len(b.free) == 0 {
		// §4.5: "if there is a situation where the workloads register
		// more specBuf entries, the operating system needs to manage
		// the specBuf as other limited resources".
		return fmt.Errorf("core: specBuf exhausted (%d entries)", len(b.flags))
	}
	idx := int(b.free[len(b.free)-1])
	b.free = b.free[:len(b.free)-1]
	b.flags[idx] = entValid
	b.sqi[idx] = sqi
	b.base[idx] = base
	b.size[idx] = int32(n)
	b.off[idx] = 0
	b.pred[idx] = b.alg.Initial()
	b.live++
	if b.live > b.highWater {
		b.highWater = b.live
	}
	head, ok := b.headOf(sqi)
	if !ok {
		b.next[idx] = int32(idx) // singleton loop
		b.setHead(sqi, idx)
		return nil
	}
	// Insert after the current head, keeping the loop closed.
	b.next[idx] = b.next[head]
	b.next[head] = int32(idx)
	return nil
}

// Unregister removes every entry of an SQI (endpoint teardown).
func (b *SpecBuf) Unregister(sqi vl.SQI) {
	head, ok := b.headOf(sqi)
	if !ok {
		return
	}
	idx := head
	for {
		next := int(b.next[idx])
		b.flags[idx] = 0
		b.next[idx] = 0
		b.sqi[idx] = 0
		b.base[idx] = 0
		b.size[idx] = 0
		b.off[idx] = 0
		b.pred[idx] = PredState{}
		b.free = append(b.free, int32(idx))
		b.live--
		if next == head {
			break
		}
		idx = next
	}
	b.specHead[sqi] = -1
}

// SelectTarget implements vl.SpecExtension: walk the SQI's entry loop
// from specHead, skipping on-fly entries, pick the first available one,
// derive specTgt = base + offset*lineBytes, consult the delay algorithm
// for the send tick, set on-fly, and advance specHead along Next — the
// Stage-3 write-back of §3.2. A loop holds at most every entry of the
// buffer, so a walk that has not returned to specHead after that many
// steps is a corrupted loop, and SelectTarget panics naming the SQI.
func (b *SpecBuf) SelectTarget(sqi vl.SQI, now uint64) (addr mem.Addr, cookie int, sendTick uint64, ok bool) {
	head, exists := b.headOf(sqi)
	if !exists {
		return 0, 0, 0, false
	}
	idx := head
	for n := len(b.flags); n > 0; n-- {
		if b.flags[idx] == entValid { // valid and not on-fly
			addr = b.base[idx] + mem.Addr(int(b.off[idx])*config.LineBytes)
			sendTick = b.alg.SendTick(&b.pred[idx], now)
			if cap := now + config.DelayCapCycles; sendTick > cap {
				sendTick = cap
			}
			b.flags[idx] |= entOnFly
			b.specHead[sqi] = b.next[idx]
			return addr, idx, sendTick, true
		}
		idx = int(b.next[idx])
		if idx == head {
			return 0, 0, 0, false
		}
	}
	panic(fmt.Sprintf("core: specBuf entry loop of SQI %d does not return to its head entry %d", sqi, head))
}

// OnResult implements vl.SpecExtension: clear the on-fly throttle, rotate
// Offset on success, and feed the outcome to the delay algorithm.
func (b *SpecBuf) OnResult(cookie int, hit bool, now uint64) {
	if b.flags[cookie]&entValid == 0 {
		return // unregistered while in flight
	}
	b.flags[cookie] &^= entOnFly
	if hit {
		b.off[cookie]++
		if b.off[cookie] >= b.size[cookie] {
			b.off[cookie] = 0
		}
	}
	b.alg.OnResponse(&b.pred[cookie], hit, now)
}

// Entries returns the number of valid entries (for tests/diagnostics).
func (b *SpecBuf) Entries() int { return b.live }

// FreeEntries reports the remaining capacity.
func (b *SpecBuf) FreeEntries() int { return len(b.free) }

// HighWater reports the maximum number of simultaneously valid entries
// the buffer has ever held — the occupancy peak the §4.5 resource
// discussion would size specBuf by.
func (b *SpecBuf) HighWater() int { return b.highWater }

// EntriesOf returns the entry indices of an SQI in loop order starting at
// the current specHead. Intended for tests.
func (b *SpecBuf) EntriesOf(sqi vl.SQI) []int {
	head, ok := b.headOf(sqi)
	if !ok {
		return nil
	}
	var out []int
	idx := head
	for {
		out = append(out, idx)
		idx = int(b.next[idx])
		if idx == head {
			return out
		}
	}
}

// Entry returns a snapshot of entry i for inspection.
func (b *SpecBuf) Entry(i int) SpecEntry {
	return SpecEntry{
		Valid:  b.flags[i]&entValid != 0,
		SQI:    b.sqi[i],
		Base:   b.base[i],
		Len:    int(b.size[i]),
		Offset: int(b.off[i]),
		Next:   int(b.next[i]),
		OnFly:  b.flags[i]&entOnFly != 0,
		Pred:   b.pred[i],
	}
}

var _ vl.SpecExtension = (*SpecBuf)(nil)
