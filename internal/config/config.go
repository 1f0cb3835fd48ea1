// Package config holds the simulated hardware configuration, mirroring
// Table 1 of the SPAMeR paper, plus the timing constants of the
// discrete-event model (DESIGN.md §3).
package config

import "fmt"

// Ticks are CPU cycles of the simulated machine.
const (
	// ClockGHz is the simulated core clock (Table 1: 2 GHz).
	ClockGHz = 2.0
	// TicksPerNS converts nanoseconds to ticks.
	TicksPerNS = 2
)

// Table 1 hardware configuration.
const (
	// NumCores is the simulated core count (Table 1: 16 AArch64 OoO CPUs).
	NumCores = 16
	// LineBytes is the cache-line size.
	LineBytes = 64
	// L1DBytes is the private L1 data cache size (32 KiB, 2-way).
	L1DBytes = 32 * 1024
	// L2Bytes is the shared L2 size (1 MiB, 16-way, mostly-inclusive).
	L2Bytes = 1024 * 1024
	// SRDEntries is the per-structure entry count of the routing device
	// (Table 1: 64 entries per prodBuf, consBuf, linkTab, and specBuf).
	SRDEntries = 64
)

// Memory hierarchy latencies, in cycles.
const (
	L1HitCycles  = 4
	L2HitCycles  = 20
	DRAMCycles   = 200
	StashCycles  = 8 // cache-injection cost at the receiving L1
	EvictPenalty = L2HitCycles
)

// Coherence-network (bus) model.
const (
	// BusBytesPerCycle is the data-path width of the shared bus.
	BusBytesPerCycle = 32
	// HopCycles is the one-way latency from a core to the routing device
	// (or back) excluding serialization.
	HopCycles = 12
	// CtrlPacketCycles is the bus occupancy of a request/response packet.
	CtrlPacketCycles = 1
)

// Routing-device microarchitecture.
const (
	// MapPipelineCycles is the depth of the 3-stage address-mapping
	// pipeline (Figure 4).
	MapPipelineCycles = 3
	// SendIssueCycles is the minimum spacing between stash issues from
	// the sending queue.
	SendIssueCycles = 1
)

// ISA operation costs (core-side cycles; packets are extra).
const (
	VLSelectCycles = 2
	VLPushCycles   = 3
	VLFetchCycles  = 2
	// SpamerRegCycles: spamer_register is a vl_fetch alias (§3.3), so it
	// costs the same as vl_fetch.
	SpamerRegCycles = VLFetchCycles
)

// Library overheads (§3.4): the queue functions are macros when inlined,
// avoiding a small per-call cost. The delta is deliberately small — the
// paper measures only a 1.02x average speedup from inlining.
const (
	CallOverheadCycles   = 3
	InlineOverheadCycles = 2
)

// Tuned delay-prediction algorithm parameters (§3.5 / Listing 1). The
// paper picks these by tuning on FIR, then cross-validates.
const (
	TunedZeta  = 256 // scanning range upper slack
	TunedTau   = 96  // scanning range lower slack
	TunedDelta = 64  // additive step
	TunedAlpha = 1   // multiplicative shift past deadline
	TunedBeta  = 2   // initialization-phase length (successful fills)
)

// DelayCapCycles bounds predictor delays so spec-enabled consumers (which
// never send requests, §3.4) cannot starve behind an unbounded back-off.
const DelayCapCycles = 1 << 16

// TicksToNS converts simulated ticks to nanoseconds.
func TicksToNS(t uint64) float64 { return float64(t) / TicksPerNS }

// TicksToMS converts simulated ticks to milliseconds.
func TicksToMS(t uint64) float64 { return TicksToNS(t) / 1e6 }

// TunedParams bundles the five tuned-algorithm parameters so the
// sensitivity sweep (Figure 11) can vary them. Its JSON form is a run
// spec's "tuned" object.
type TunedParams struct {
	Zeta  uint64 `json:"zeta"`  // ζ: upper slack of the scanning range around the interval reference
	Tau   uint64 `json:"tau"`   // τ: lower slack of the scanning range
	Delta uint64 `json:"delta"` // δ: additive step inside the range
	Alpha uint64 `json:"alpha"` // α: left-shift amount past the deadline
	Beta  uint64 `json:"beta"`  // β: number of fills in the initialization phase
}

// DefaultTuned returns the paper's chosen parameter set
// (ζ=256, τ=96, δ=64, α=1, β=2).
func DefaultTuned() TunedParams {
	return TunedParams{Zeta: TunedZeta, Tau: TunedTau, Delta: TunedDelta, Alpha: TunedAlpha, Beta: TunedBeta}
}

// String renders the parameter set in the paper's notation.
func (p TunedParams) String() string {
	return fmt.Sprintf("ζ=%d τ=%d δ=%d α=%d β=%d", p.Zeta, p.Tau, p.Delta, p.Alpha, p.Beta)
}

// Table1 describes the simulated hardware in the layout of the paper's
// Table 1, for the reproduction harness.
func Table1() [][2]string {
	return [][2]string{
		{"Cores", fmt.Sprintf("%dxAArch64-like cores @ %.0f GHz (1 tick = 1 cycle)", NumCores, ClockGHz)},
		{"Caches", "32 KiB private L1D, 48 KiB private L1I; 1 MiB shared L2 (latency-modelled)"},
		{"DRAM", fmt.Sprintf("%d-cycle access (latency-modelled)", DRAMCycles)},
		{"SRD", fmt.Sprintf("%d entries per prodBuf, consBuf, linkTab, and specBuf", SRDEntries)},
	}
}
