// Package noc models the on-chip coherence network that Virtual-Link and
// SPAMeR reuse for queue traffic (Figures 2 and 3). The model is a shared
// split-transaction bus: every packet occupies the bus for a
// size-dependent number of cycles (serialization), then takes a fixed hop
// latency to its destination. Busy-cycle accounting yields the bus
// utilization metric of Figure 10b — "the percentage of cycles that have
// at least one packet (request or data) reaches the bus".
package noc

import (
	"fmt"

	"spamer/internal/config"
	"spamer/internal/sim"
)

// PacketKind classifies bus packets, mirroring the transaction types of
// the paper's flow diagrams.
type PacketKind uint8

const (
	// PktPush is a producer vl_push carrying one cache line to the
	// routing device ((2) in Figure 3).
	PktPush PacketKind = iota
	// PktFetchReq is a consumer vl_fetch request ((4) in Figure 3).
	PktFetchReq
	// PktStash is a data push from the routing device into a consumer
	// line ((5) on-demand or (6) speculative in Figure 3).
	PktStash
	// PktResp is the hit/miss response signal from the targeted cache
	// controller back to the routing device (Figure 5).
	PktResp
	// PktRegister is a spamer_register writing a specBuf entry (§3.3).
	PktRegister
	// PktCoherence is generic coherence traffic (snoop/invalidation),
	// used by the software-queue baseline of Figure 1a.
	PktCoherence
	numPacketKinds
)

func (k PacketKind) String() string {
	switch k {
	case PktPush:
		return "push"
	case PktFetchReq:
		return "fetch-req"
	case PktStash:
		return "stash"
	case PktResp:
		return "resp"
	case PktRegister:
		return "register"
	case PktCoherence:
		return "coherence"
	default:
		return fmt.Sprintf("PacketKind(%d)", uint8(k))
	}
}

// occupancy returns the serialization cycles for a packet kind.
func occupancy(k PacketKind) uint64 {
	switch k {
	case PktPush, PktStash:
		// One cache line over a BusBytesPerCycle-wide data path.
		return (config.LineBytes + config.BusBytesPerCycle - 1) / config.BusBytesPerCycle
	default:
		return config.CtrlPacketCycles
	}
}

// Stats aggregates bus accounting for one run.
type Stats struct {
	Packets    [numPacketKinds]uint64
	BusyCycles uint64
	startTick  uint64
}

// PacketCount returns the number of packets of kind k sent.
func (s Stats) PacketCount(k PacketKind) uint64 { return s.Packets[k] }

// TotalPackets returns the total packet count across kinds.
func (s Stats) TotalPackets() uint64 {
	var t uint64
	for _, n := range s.Packets {
		t += n
	}
	return t
}

// DefaultChannels is the number of independent transfer channels of the
// interconnect. The coherence network of a 16-core CMP is a crossbar or
// mesh with several concurrent links, not a single shared wire; modelling
// a handful of channels keeps contention real (streams do queue behind
// each other) without making one saturated link the artificial bottleneck
// of every multi-queue workload.
const DefaultChannels = 4

// Bus is the shared interconnect: a fixed set of transfer channels with
// a common hop latency. A packet occupies the earliest-free channel for a
// size-dependent number of cycles; concurrent senders queue behind the
// busiest traffic, which is how contention for data-network resources
// (§1) manifests.
type Bus struct {
	k       *sim.Kernel
	hopLat  uint64
	freeAt  []uint64 // per-channel next-free tick
	freeAt0 [DefaultChannels]uint64
	stats   Stats
}

// New returns a bus attached to kernel k with the default hop latency
// and channel count.
func New(k *sim.Kernel) *Bus {
	return NewWithOptions(k, config.HopCycles, DefaultChannels)
}

// NewWithHopLatency returns a bus with a custom one-way hop latency,
// used by topology sensitivity tests.
func NewWithHopLatency(k *sim.Kernel, hop uint64) *Bus {
	return NewWithOptions(k, hop, DefaultChannels)
}

// NewWithOptions returns a bus with explicit hop latency and channel
// count (channels <= 0 selects DefaultChannels).
func NewWithOptions(k *sim.Kernel, hop uint64, channels int) *Bus {
	if channels <= 0 {
		channels = DefaultChannels
	}
	b := &Bus{k: k, hopLat: hop, stats: Stats{startTick: k.Now()}}
	// Channel state lives in the embedded array when it fits (every config
	// up to DefaultChannels does); only oversized custom topologies pay a
	// second heap block. Safe because a Bus never moves after construction.
	if channels <= len(b.freeAt0) {
		b.freeAt = b.freeAt0[:channels]
	} else {
		b.freeAt = make([]uint64, channels)
	}
	return b
}

// Channels reports the number of transfer channels.
func (b *Bus) Channels() int { return len(b.freeAt) }

// Send transmits a packet of the given kind. deliver runs at the arrival
// tick (channel wait + serialization + hop latency). deliver may be nil
// for fire-and-forget accounting.
func (b *Bus) Send(kind PacketKind, deliver func()) {
	arrival := b.occupy(kind)
	if deliver != nil {
		b.k.At(arrival, deliver)
	}
}

// SendFunc is the allocation-free form of Send: deliver(arg) runs at the
// arrival tick. deliver is typically a func value the caller bound once;
// arg carries the per-packet state, so the per-packet delivery schedules
// without creating a closure (see sim.Kernel.AtFunc).
func (b *Bus) SendFunc(kind PacketKind, deliver func(uint64), arg uint64) {
	arrival := b.occupy(kind)
	b.k.AtFunc(arrival, deliver, arg)
}

// occupy books a packet of the given kind on the earliest-free channel,
// updates the accounting, and returns the arrival tick.
func (b *Bus) occupy(kind PacketKind) uint64 {
	occ := occupancy(kind)
	// Earliest-free channel.
	ch := 0
	for i := 1; i < len(b.freeAt); i++ {
		if b.freeAt[i] < b.freeAt[ch] {
			ch = i
		}
	}
	start := b.k.Now()
	if b.freeAt[ch] > start {
		start = b.freeAt[ch]
	}
	b.freeAt[ch] = start + occ
	b.stats.BusyCycles += occ
	b.stats.Packets[kind]++
	return start + occ + b.hopLat
}

// HopLatency reports the configured one-way hop latency.
func (b *Bus) HopLatency() uint64 { return b.hopLat }

// Stats returns a snapshot of the accounting counters.
func (b *Bus) Stats() Stats { return b.stats }

// Utilization reports busy channel-cycles as a fraction of elapsed
// channel-cycles since the bus was created (or since ResetStats) — the
// Figure 10b metric generalized to a multi-channel interconnect.
//
// Send charges BusyCycles at submit time for serialization that may
// still lie in the future (a channel's freeAt can exceed Now at the end
// of a run), so the window must extend to the last committed busy cycle:
// elapsed time is measured to max(Now, max(freeAt)). With that window
// the ratio is exact and never exceeds 1; it is not clamped, so any
// future overcounting bug fails tests instead of being masked.
func (b *Bus) Utilization() float64 {
	end := b.k.Now()
	for _, f := range b.freeAt {
		if f > end {
			end = f
		}
	}
	elapsed := (end - b.stats.startTick) * uint64(len(b.freeAt))
	if elapsed == 0 {
		return 0
	}
	return float64(b.stats.BusyCycles) / float64(elapsed)
}

// ResetStats zeroes the counters and restarts the utilization window.
func (b *Bus) ResetStats() {
	b.stats = Stats{startTick: b.k.Now()}
}
