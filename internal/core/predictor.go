package core

import (
	"math/bits"
	"slices"

	"spamer/internal/config"
)

// DelayAlgorithm predicts when a speculative push should be issued and
// learns from push responses (§3.5). Implementations keep all mutable
// state in the per-specBuf-entry PredState, matching the paper's
// "registers (one per linkTab entry or per specBuf entry)".
type DelayAlgorithm interface {
	// Name identifies the algorithm in reports ("0delay", "adapt", ...).
	Name() string
	// Initial returns the power-on prediction state for a fresh entry.
	Initial() PredState
	// SendTick returns the absolute tick at which the next speculative
	// push from this entry should issue, given the current tick.
	SendTick(st *PredState, now uint64) uint64
	// OnResponse feeds back the hit/miss outcome of a push.
	OnResponse(st *PredState, hit bool, now uint64)
}

// ---------------------------------------------------------------------
// 0-delay: "does not add any additional delay, but lets the speculative
// push go as soon as possible … never miss the earliest chance … the down
// side is that it could eat up bus/port bandwidth" (§3.5).
// ---------------------------------------------------------------------

// ZeroDelay is the aggressive push-immediately algorithm.
type ZeroDelay struct{}

// Name implements DelayAlgorithm.
func (ZeroDelay) Name() string { return "0delay" }

// Initial implements DelayAlgorithm.
func (ZeroDelay) Initial() PredState { return PredState{} }

// SendTick implements DelayAlgorithm: push now.
func (ZeroDelay) SendTick(_ *PredState, now uint64) uint64 { return now }

// OnResponse implements DelayAlgorithm: 0-delay learns nothing.
func (ZeroDelay) OnResponse(_ *PredState, _ bool, _ uint64) {}

// ---------------------------------------------------------------------
// Adaptive: "saves the delay values in registers …, and reduces the delay
// by half (right shift by 1-bit) upon a successful speculative push,
// otherwise double the delay for a failed speculative push" (§3.5).
// ---------------------------------------------------------------------

// Adaptive is the multiplicative-adjustment algorithm. InitialDelay seeds
// a fresh entry; 0 selects DefaultAdaptiveDelay.
type Adaptive struct {
	InitialDelay uint64
}

// DefaultAdaptiveDelay seeds adaptive entries. A seed is needed because a
// delay of zero is a fixed point of both the halving and doubling updates.
const DefaultAdaptiveDelay = 16

// Name implements DelayAlgorithm.
func (Adaptive) Name() string { return "adapt" }

// Initial implements DelayAlgorithm.
func (a Adaptive) Initial() PredState {
	d := a.InitialDelay
	if d == 0 {
		d = DefaultAdaptiveDelay
	}
	return PredState{Delay: d}
}

// SendTick implements DelayAlgorithm.
func (Adaptive) SendTick(st *PredState, now uint64) uint64 { return now + st.Delay }

// OnResponse implements DelayAlgorithm.
func (Adaptive) OnResponse(st *PredState, hit bool, now uint64) {
	if hit {
		st.Delay >>= 1
		st.NFills++
		st.Last = now
	} else {
		if st.Delay == 0 {
			st.Delay = 1
		} else {
			st.Delay <<= 1
		}
		if st.Delay > config.DelayCapCycles {
			st.Delay = config.DelayCapCycles
		}
	}
	st.Failed = !hit
}

// ---------------------------------------------------------------------
// Tuned: Listing 1. The interval between the two most recent successful
// pushes at the same entry is the reference; the algorithm scans the
// range [ref-τ, ref+ζ] in additive steps of δ, growing multiplicatively
// (<<α) past the deadline, with a β-fill initialization phase.
// ---------------------------------------------------------------------

// Tuned is the Listing 1 algorithm with the paper's parameters
// (ζ=256, τ=96, δ=64, α=1, β=2 after tuning on FIR).
type Tuned struct {
	P config.TunedParams
}

// NewTuned returns the tuned algorithm with the paper's chosen
// parameters.
func NewTuned() Tuned { return Tuned{P: config.DefaultTuned()} }

// Name implements DelayAlgorithm.
func (Tuned) Name() string { return "tuned" }

// Initial implements DelayAlgorithm.
func (t Tuned) Initial() PredState { return PredState{} }

// bithash concretizes the paper's unspecified bithash(delay, tsc): a
// 1-to-4-bit shift chosen by a hash of the operands. The "halved" probe
// of lookupSpecTab is the algorithm's fast-recovery mechanism after a
// slow-path episode poisons the interval reference — a deeper shift lets
// the probe ladder descend toward the fast-path period geometrically
// (delay/2, /4, /8, /16) instead of one halving per successful push,
// which is what lets tuned recover FIR where adaptive cannot (§4.3).
func bithash(delay, tsc uint64) uint {
	return 1 + uint(bits.OnesCount64(delay^(tsc>>6))&3)
}

// SendTick implements lookupSpecTab of Listing 1.
func (t Tuned) SendTick(st *PredState, now uint64) uint64 {
	halved := st.Delay >> bithash(st.Delay, now)
	elapse := now - st.Last
	switch {
	case st.NFills < t.P.Beta:
		// Initializing phase.
		if st.Failed {
			return now + t.P.Delta
		}
		return now
	case elapse < halved:
		// Early enough to try the halved delay.
		return st.Last + halved
	case elapse < st.Delay:
		// Early enough for the planned delay.
		return st.Last + st.Delay
	case !st.Failed:
		// Data available later than planned and not tried yet.
		return now
	case elapse < st.DDL:
		// Planned delay falls behind, but not across the deadline yet.
		return now + t.P.Delta
	default:
		return now + st.Delay
	}
}

// OnResponse implements updateResponse of Listing 1.
func (t Tuned) OnResponse(st *PredState, hit bool, now uint64) {
	if hit {
		// Use the interval of the most recent hit responses as the
		// reference; [ref-τ, ref+ζ] is the scanning range.
		interval := now - st.Last
		if interval > t.P.Tau {
			st.Delay = interval - t.P.Tau
		} else {
			st.Delay = 0
		}
		st.DDL = interval + t.P.Zeta
		st.NFills++
		st.Last = now
	} else {
		if st.Delay < st.DDL {
			// Before the deadline: retry after δ.
			st.Delay += t.P.Delta
		} else {
			// Past the deadline: left shift α bits.
			if st.Delay == 0 {
				st.Delay = t.P.Delta
			} else {
				st.Delay <<= t.P.Alpha
			}
		}
		if st.Delay > config.DelayCapCycles {
			st.Delay = config.DelayCapCycles
		}
	}
	st.Failed = !hit
}

// algorithms lists every implemented delay algorithm once, at its
// default parameters: the three §3.5 algorithms in paper order, then
// the §3.5-classed extensions (history-based, perceptron-style,
// profiling-guided) and the future-work dynamic reconfiguration
// variant. Every algorithm is a value type, so one list serves every
// device.
var algorithms = []DelayAlgorithm{
	ZeroDelay{}, Adaptive{}, NewTuned(),
	NewHistory(), NewPerceptron(), NewProfiled(), NewDynamicTuned(),
}

// Algorithms returns the three §3.5 algorithms in paper order, with the
// tuned algorithm at its published parameters.
func Algorithms() []DelayAlgorithm { return slices.Clone(algorithms[:3]) }

// ExtendedAlgorithms returns every implemented delay algorithm: the
// paper's three plus the extensions.
func ExtendedAlgorithms() []DelayAlgorithm { return slices.Clone(algorithms) }

// ByName returns the delay algorithm whose Name is name, if there is
// one.
func ByName(name string) (DelayAlgorithm, bool) {
	for _, a := range algorithms {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Obfuscated wraps any delay algorithm and adds bounded deterministic
// jitter derived from a keyed hash of the prediction state — the §3.6
// mitigation against timing side channels on the speculation counters
// ("isolation ... and obfuscation (augmented by random chance) to
// prevent secrets from leaking"). The jitter is reproducible for a
// given key, keeping simulations deterministic, but decorrelates the
// observable push timing from the learned counter values.
type Obfuscated struct {
	Inner DelayAlgorithm
	// Key seeds the jitter hash (per-partition in a real deployment).
	Key uint64
	// MaxJitter bounds the added delay, exclusive (0 disables).
	MaxJitter uint64
}

// Name implements DelayAlgorithm.
func (o Obfuscated) Name() string { return o.Inner.Name() + "+obf" }

// Initial implements DelayAlgorithm.
func (o Obfuscated) Initial() PredState { return o.Inner.Initial() }

// jitter is a split-mix style hash of (key, tick) reduced mod MaxJitter.
func (o Obfuscated) jitter(tick uint64) uint64 {
	if o.MaxJitter == 0 {
		return 0
	}
	x := tick ^ o.Key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x % o.MaxJitter
}

// SendTick implements DelayAlgorithm.
func (o Obfuscated) SendTick(st *PredState, now uint64) uint64 {
	return o.Inner.SendTick(st, now) + o.jitter(now)
}

// OnResponse implements DelayAlgorithm.
func (o Obfuscated) OnResponse(st *PredState, hit bool, now uint64) {
	o.Inner.OnResponse(st, hit, now)
}
