// Package traffic implements seeded open-loop arrival processes for
// saturation workloads: Poisson, Markov-modulated Poisson (MMPP), and
// heavy-tailed (bounded Pareto) inter-arrival draws, scaled by a
// configurable user population and optionally overlaid with periodic
// incast storms and a diurnal rate ramp.
//
// "Open loop" means the arrival timeline is a pure function of the spec
// and the endpoint id — it is fixed before the simulation runs and does
// not react to queue backpressure. A producer that falls behind its
// schedule pushes immediately and catches up; the schedule itself never
// slips. This is the load model under which saturation behaviour
// (Retry-After shedding, window stalls, many-producer incast) is
// meaningful, in contrast to the closed-loop Table 2 kernels where each
// message's issue time depends on the previous one's completion.
//
// Determinism contract: a Source is driven by a splitmix64 PRNG seeded
// from (Spec.Seed, endpoint id) and pure-Go float math, so the same spec
// and endpoint produce the bit-identical arrival sequence on every run
// and platform. The oracle's SPAMeR-vs-VL differential relies on this:
// every algorithm's run of an open-loop shape sees the same arrivals and
// must deliver the same messages.
package traffic

import (
	"fmt"
	"math"
)

// Process names accepted by Spec.Process.
const (
	Poisson = "poisson" // exponential inter-arrival gaps (default)
	MMPP    = "mmpp"    // two-state Markov-modulated Poisson (normal/bursty)
	Pareto  = "pareto"  // bounded Pareto gaps: heavy tail, finite worst case
)

// Spec describes one open-loop arrival process. The zero MeanGap is
// invalid; every other field defaults sensibly (see Canonical). It is
// JSON-serializable so specs embed in workload shapes, experiment spec
// files, and oracle repro cases.
type Spec struct {
	// Process selects the inter-arrival law: "poisson" (default),
	// "mmpp", or "pareto".
	Process string `json:"process,omitempty"`
	// Seed is the base PRNG seed; each endpoint mixes its id in, so a
	// population of producers is deterministic yet decorrelated.
	Seed uint64 `json:"seed,omitempty"`
	// MeanGap is the mean inter-arrival gap in ticks for a single user.
	// Required (> 0).
	MeanGap uint64 `json:"mean_gap"`
	// Users is the population this endpoint stands in for (default 1).
	// The effective mean gap is MeanGap/Users: one simulated producer
	// carries the superposed arrival stream of Users independent users,
	// which is how a handful of endpoints model millions of clients.
	Users int `json:"users,omitempty"`

	// BurstyGap is the MMPP bursty-state mean gap (default MeanGap/8,
	// min 1). MeanDwell is the mean number of arrivals spent in each
	// state before switching (default 32).
	BurstyGap uint64  `json:"bursty_gap,omitempty"`
	MeanDwell float64 `json:"mean_dwell,omitempty"`

	// Alpha is the Pareto tail index (default 1.5; must be > 1 so the
	// mean is finite). MaxGap bounds the tail (default 64*MeanGap).
	Alpha  float64 `json:"alpha,omitempty"`
	MaxGap uint64  `json:"max_gap,omitempty"`

	// StormEvery/StormBurst overlay periodic incast storms: every
	// StormEvery ticks, StormBurst extra arrivals land on the same tick.
	StormEvery uint64 `json:"storm_every,omitempty"`
	StormBurst int    `json:"storm_burst,omitempty"`

	// RampPeriod/RampPeak overlay a diurnal ramp: the arrival rate is
	// modulated by a triangle wave of the given period, rising from the
	// base rate to RampPeak times the base rate (default peak 4) at
	// mid-period and back.
	RampPeriod uint64  `json:"ramp_period,omitempty"`
	RampPeak   float64 `json:"ramp_peak,omitempty"`
}

// Validate rejects specs that cannot drive a generator.
func (sp *Spec) Validate() error {
	switch sp.Process {
	case "", Poisson, MMPP, Pareto:
	default:
		return fmt.Errorf("traffic: unknown process %q", sp.Process)
	}
	if sp.MeanGap == 0 {
		return fmt.Errorf("traffic: mean_gap must be > 0")
	}
	if sp.Users < 0 {
		return fmt.Errorf("traffic: negative users")
	}
	if sp.MeanDwell < 0 {
		return fmt.Errorf("traffic: negative mean_dwell")
	}
	if sp.Alpha != 0 && sp.Alpha <= 1 {
		return fmt.Errorf("traffic: pareto alpha must be > 1 (finite mean), got %v", sp.Alpha)
	}
	if sp.MaxGap != 0 && sp.MaxGap < sp.MeanGap {
		return fmt.Errorf("traffic: max_gap %d below mean_gap %d", sp.MaxGap, sp.MeanGap)
	}
	if sp.StormBurst < 0 || (sp.StormBurst > 0 && sp.StormEvery == 0) {
		return fmt.Errorf("traffic: storm_burst needs storm_every > 0")
	}
	if sp.RampPeak != 0 && sp.RampPeak < 1 {
		return fmt.Errorf("traffic: ramp_peak must be >= 1, got %v", sp.RampPeak)
	}
	if sp.RampPeak > 1 && sp.RampPeriod == 0 {
		return fmt.Errorf("traffic: ramp_peak needs ramp_period > 0")
	}
	return nil
}

// Canonical returns the spec with every default resolved explicitly and
// every field that the selected process ignores zeroed, so two specs
// that build identical generators compare (and hash) equal.
func (sp Spec) Canonical() Spec {
	c := sp
	if c.Process == "" {
		c.Process = Poisson
	}
	if c.Users <= 0 {
		c.Users = 1
	}
	c.BurstyGap, c.MeanDwell = 0, 0
	c.Alpha, c.MaxGap = 0, 0
	switch c.Process {
	case MMPP:
		c.BurstyGap, c.MeanDwell = sp.BurstyGap, sp.MeanDwell
		if c.BurstyGap == 0 {
			c.BurstyGap = c.MeanGap / 8
		}
		if c.BurstyGap == 0 {
			c.BurstyGap = 1
		}
		if c.MeanDwell == 0 {
			c.MeanDwell = 32
		}
	case Pareto:
		c.Alpha, c.MaxGap = sp.Alpha, sp.MaxGap
		if c.Alpha == 0 {
			c.Alpha = 1.5
		}
		if c.MaxGap == 0 {
			c.MaxGap = 64 * c.MeanGap
		}
	}
	if c.StormBurst <= 0 || c.StormEvery == 0 {
		c.StormEvery, c.StormBurst = 0, 0
	}
	if c.RampPeriod == 0 {
		c.RampPeak = 0
	} else if c.RampPeak == 0 {
		c.RampPeak = 4
	}
	return c
}

// Name returns a compact diagnostic suffix encoding the spec, used in
// workload names ("poisson", "mmpp+storm", ...).
func (sp *Spec) Name() string {
	c := sp.Canonical()
	n := c.Process
	if c.StormBurst > 0 {
		n += "+storm"
	}
	if c.RampPeak > 1 {
		n += "+ramp"
	}
	return n
}

// Source generates the arrival schedule of one endpoint: a nondecreasing
// stream of absolute ticks. It allocates only at construction; Next and
// Fill are allocation-free.
type Source struct {
	process string
	meanGap float64 // per-endpoint effective mean (MeanGap / Users)

	// mmpp
	burstyGap float64
	meanDwell float64
	bursty    bool
	dwell     uint64 // arrivals left in the current state

	// pareto (precomputed inverse-CDF constants)
	parMin   float64 // L: lower bound chosen so the unbounded mean is meanGap
	parLH    float64 // (L/H)^alpha
	invAlpha float64

	// storm overlay
	stormEvery uint64
	stormBurst int
	stormAt    uint64 // next storm epoch
	stormLeft  int    // arrivals still owed at the current epoch

	// diurnal ramp
	rampPeriod float64
	rampPeak   float64

	rng  uint64 // splitmix64 state
	next uint64 // next base-process arrival tick
}

// NewSource builds the generator for one endpoint. The spec must
// validate; NewSource panics otherwise (shapes validate before build).
func NewSource(sp Spec, endpoint int) *Source {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	c := sp.Canonical()
	s := &Source{
		process:    c.Process,
		meanGap:    float64(c.MeanGap) / float64(c.Users),
		stormEvery: c.StormEvery,
		stormBurst: c.StormBurst,
		stormAt:    c.StormEvery,
		rampPeriod: float64(c.RampPeriod),
		rampPeak:   c.RampPeak,
		// Mix the endpoint id into the seed through one splitmix step so
		// endpoints 0 and 1 of the same spec diverge immediately.
		rng: c.Seed ^ mix64(uint64(endpoint)+0x6a09e667f3bcc909),
	}
	switch c.Process {
	case MMPP:
		s.burstyGap = float64(c.BurstyGap) / float64(c.Users)
		s.meanDwell = c.MeanDwell
	case Pareto:
		// Choose L so the unbounded Pareto mean a*L/(a-1) equals the
		// requested mean; bounding at H trims the tail slightly below it.
		a := c.Alpha
		s.invAlpha = 1 / a
		s.parMin = s.meanGap * (a - 1) / a
		if s.parMin < 1 {
			s.parMin = 1
		}
		h := float64(c.MaxGap)
		if h < s.parMin {
			h = s.parMin
		}
		s.parLH = math.Pow(s.parMin/h, a)
	}
	s.advanceBase()
	return s
}

// Next returns the next arrival tick. The stream is nondecreasing; any
// number of arrivals may share a tick (a storm, or a gap that rounds to
// zero under saturation load).
func (s *Source) Next() uint64 {
	if s.stormBurst > 0 {
		if s.stormLeft > 0 {
			t := s.stormAt
			s.stormLeft--
			if s.stormLeft == 0 {
				s.stormAt += s.stormEvery
			}
			return t
		}
		if s.stormAt <= s.next {
			t := s.stormAt
			s.stormLeft = s.stormBurst - 1
			if s.stormLeft == 0 {
				s.stormAt += s.stormEvery
			}
			return t
		}
	}
	t := s.next
	s.advanceBase()
	return t
}

// Fill overwrites dst with the next len(dst) arrival ticks and returns
// len(dst). Callers reuse one chunk buffer as a pooled arrival-record
// block, so the open-loop hot path never allocates per message.
func (s *Source) Fill(dst []uint64) int {
	for i := range dst {
		dst[i] = s.Next()
	}
	return len(dst)
}

// advanceBase draws the next base-process gap and advances the schedule,
// clamping at the end of time instead of wrapping.
func (s *Source) advanceBase() {
	gap := s.gap()
	if s.rampPeriod > 0 {
		gap /= s.rampMult(s.next)
	}
	g := uint64(gap + 0.5)
	t := s.next + g
	if t < s.next {
		t = ^uint64(0)
	}
	s.next = t
}

// gap draws one inter-arrival gap (in ticks, continuous) from the
// configured process.
func (s *Source) gap() float64 {
	switch s.process {
	case MMPP:
		if s.dwell == 0 {
			s.bursty = !s.bursty
			s.dwell = 1 + uint64(s.exp(s.meanDwell))
		}
		s.dwell--
		if s.bursty {
			return s.exp(s.burstyGap)
		}
		return s.exp(s.meanGap)
	case Pareto:
		u := s.uniform()
		return s.parMin / math.Pow(1-u*(1-s.parLH), s.invAlpha)
	default: // Poisson
		return s.exp(s.meanGap)
	}
}

// exp draws an exponential variate with the given mean.
func (s *Source) exp(mean float64) float64 {
	return -mean * math.Log(1-s.uniform())
}

// uniform draws a float64 in [0, 1).
func (s *Source) uniform() float64 {
	return float64(s.next64()>>11) / (1 << 53)
}

// rampMult is the diurnal rate multiplier at absolute tick t: a triangle
// wave rising from 1 at phase 0 to rampPeak at mid-period and back.
func (s *Source) rampMult(t uint64) float64 {
	phase := math.Mod(float64(t), s.rampPeriod) / s.rampPeriod
	tri := 1 - math.Abs(2*phase-1)
	return 1 + (s.rampPeak-1)*tri
}

// next64 steps the splitmix64 generator (Steele et al.), chosen for
// platform-stable bit-exact output from pure integer arithmetic.
func (s *Source) next64() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	return mix64(s.rng)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MeanGapTicks reports the analytic mean inter-arrival gap of the base
// process (per endpoint, after Users scaling, before storm/ramp
// overlays). Rate sanity tests compare empirical means against it.
func (sp Spec) MeanGapTicks() float64 {
	c := sp.Canonical()
	mean := float64(c.MeanGap) / float64(c.Users)
	switch c.Process {
	case MMPP:
		// Equal mean dwell (in arrivals) in both states: the long-run
		// mean gap is the unweighted average of the two state means.
		return (mean + float64(c.BurstyGap)/float64(c.Users)) / 2
	case Pareto:
		// Bounded Pareto mean on [L, H] with tail index a.
		a := c.Alpha
		l := mean * (a - 1) / a
		if l < 1 {
			l = 1
		}
		h := float64(c.MaxGap)
		if h < l {
			h = l
		}
		la := math.Pow(l/h, a)
		if la == 1 {
			return l
		}
		return math.Pow(l, a) / (1 - la) * a / (a - 1) *
			(math.Pow(l, 1-a) - math.Pow(h, 1-a))
	default:
		return mean
	}
}
