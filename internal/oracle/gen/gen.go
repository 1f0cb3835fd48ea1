// Package gen generates the randomized inputs of the verification
// oracle: seeded pseudo-random experiment specs, many carrying a
// synthetic workload shape (internal/workloads.Shape), as Cases. Every
// Case is fully determined by its seed and JSON-serializable, so a
// failing case from a campaign or a fuzz run can be persisted verbatim
// and replayed.
package gen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/experiments"
	"spamer/internal/traffic"
	"spamer/internal/workloads"
	"spamer/internal/workloads/dag"
)

// Case is one generated verification case: an experiment spec — a
// named benchmark, or a synthetic workload in Spec.Shape (Benchmark is
// then "synthetic") — plus the oracle's eviction pressure.
type Case struct {
	// Seed is the value the case was generated from (diagnostic).
	Seed uint64 `json:"seed,omitempty"`

	Spec experiments.Spec `json:"spec"`

	// EvictEvery arms line-eviction pressure (spamer.Config.EvictEvery)
	// on the invariant runs.
	EvictEvery uint64 `json:"evict_every,omitempty"`
}

// WriteFile persists the case as indented JSON (repro files).
func (c *Case) WriteFile(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCaseFile loads a case previously written with WriteFile.
func ReadCaseFile(path string) (Case, error) {
	var c Case
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("gen: case file %s: %w", path, err)
	}
	return c, nil
}

// Gen is a deterministic case stream.
type Gen struct {
	seed uint64
	rng  *rand.Rand
}

// New returns a generator seeded with seed. Identical seeds yield
// identical case streams on every platform.
func New(seed uint64) *Gen {
	return &Gen{seed: seed, rng: rand.New(rand.NewSource(int64(seed)))}
}

// Case draws one random verification case. The mix leans heavily on
// synthetic shapes — they run in milliseconds — with an occasional named
// Table 2 benchmark for realism.
func (g *Gen) Case() Case {
	c := Case{Seed: g.seed}
	switch r := g.rng.Intn(16); {
	case r < 6:
		c.Spec.Shape = g.chain()
	case r < 10:
		c.Spec.Shape = &workloads.Shape{DAG: g.dag()}
	case r < 14:
		c.Spec.Shape = g.fan()
	default:
		g.named(&c)
	}
	g.knobs(&c)
	return c
}

// DAGCase always draws a workload-DAG case — the entry point of DAG-
// focused fuzzing and tests.
func (g *Gen) DAGCase() Case {
	c := Case{Seed: g.seed, Spec: experiments.Spec{Shape: &workloads.Shape{DAG: g.dag()}}}
	g.knobs(&c)
	return c
}

// FanCase always draws a sequential fan-shape case — the entry point of
// FuzzSpamerVsVL (M:N fans stress the multi-consumer delivery paths the
// chain shapes cannot reach).
func (g *Gen) FanCase() Case {
	c := Case{Seed: g.seed, Spec: experiments.Spec{Shape: g.fan()}}
	g.knobs(&c)
	return c
}

// chain draws a 1:1 pipeline shape. One in three chains is open-loop: a
// seeded arrival process replaces the closed-loop push cadence, so the
// invariant battery covers the traffic engine too.
func (g *Gen) chain() *workloads.Shape {
	sh := &workloads.Shape{
		Stages:   2 + g.rng.Intn(4),      // 2..5 threads
		Messages: 8 + g.rng.Intn(150),    // 8..157 per chain
		ProdWork: uint64(g.rng.Intn(80)), // 0..79 cycles
		ConsWork: uint64(g.rng.Intn(80)), //
		Lines:    1 + g.rng.Intn(4),      // 1..4 consumer lines
		Window:   g.rng.Intn(5),          // 0 (default) .. 4
	}
	switch g.rng.Intn(3) {
	case 0:
		sh.Burst = 2 + g.rng.Intn(7) // bursty arrivals
	case 1:
		sh.Arrival = g.arrival()
	}
	return sh
}

// fan draws an M:N fan shape. Open-loop fans model
// incast: several producers on independent arrival schedules converging
// on one queue.
func (g *Gen) fan() *workloads.Shape {
	sh := &workloads.Shape{
		Producers: 1 + g.rng.Intn(4), // 1..4
		Consumers: 1 + g.rng.Intn(3), // 1..3
		Messages:  6 + g.rng.Intn(75),
		ProdWork:  uint64(g.rng.Intn(60)),
		ConsWork:  uint64(g.rng.Intn(60)),
		Lines:     1 + g.rng.Intn(4),
		Window:    g.rng.Intn(5),
	}
	switch g.rng.Intn(3) {
	case 0:
		sh.Burst = 2 + g.rng.Intn(7)
	case 1:
		sh.Arrival = g.arrival()
	}
	return sh
}

// dag draws a random layered workload DAG: 2–4 layers of 1–2 stages
// with 1–3 replicas each, every non-first-layer stage fed by one or two
// distinct earlier stages under a random edge policy (pair when replica
// counts line up, shard exchanges, M:1 shared fan-ins, or the
// auto-resolved default). Sources split between closed-loop counts,
// open-loop arrival schedules, and short recorded-trace replays; one in
// four graphs grows a dynamic shared drain. The generator
// is correct by construction — an invalid result is a generator bug and
// panics so fuzzing surfaces it loudly.
func (g *Gen) dag() *dag.Spec {
	s := &dag.Spec{Name: "rand", Seed: g.rng.Uint64()}
	layers := 2 + g.rng.Intn(3)
	var earlier []int
	for li := 0; li < layers; li++ {
		ids := make([]int, 1+g.rng.Intn(2))
		for k := range ids {
			st := dag.Stage{
				Name:     fmt.Sprintf("s%d", len(s.Stages)),
				Replicas: 1 + g.rng.Intn(3),
				Work:     g.dagDist(),
			}
			if li == 0 {
				g.dagSource(&st)
			}
			ids[k] = len(s.Stages)
			s.Stages = append(s.Stages, st)
		}
		for _, ti := range ids {
			if li == 0 {
				continue
			}
			feeds := []int{earlier[g.rng.Intn(len(earlier))]}
			if len(earlier) > 1 && g.rng.Intn(2) == 0 {
				if second := earlier[g.rng.Intn(len(earlier))]; second != feeds[0] {
					feeds = append(feeds, second)
				}
			}
			for _, fi := range feeds {
				s.Edges = append(s.Edges, g.dagEdge(&s.Stages[fi], &s.Stages[ti]))
			}
		}
		earlier = append(earlier, ids...)
	}
	if g.rng.Intn(4) == 0 {
		// Dynamic shared drain: an M:N WorkCounter sink hanging off a
		// random stage (its shared edge must be its sole input).
		fi := g.rng.Intn(len(s.Stages))
		s.Stages = append(s.Stages, dag.Stage{
			Name:     "drain",
			Replicas: 2 + g.rng.Intn(2),
			Work:     g.dagDist(),
		})
		s.Edges = append(s.Edges, dag.Edge{From: s.Stages[fi].Name, To: "drain", Policy: dag.PolicyShared})
	}
	// Broadcast fan-out amplifies source counts multiplicatively; halve
	// closed-loop sources (and truncate replays) until a campaign case
	// stays in the milliseconds.
	for iter := 0; s.TotalMessages(1) > 2500 && iter < 16; iter++ {
		for i := range s.Stages {
			st := &s.Stages[i]
			if st.Messages > 1 {
				st.Messages = (st.Messages + 1) / 2
			}
			if len(st.Replay) > 1 {
				st.Replay = st.Replay[:(len(st.Replay)+1)/2]
			}
		}
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("gen: generated invalid DAG: %v", err))
	}
	return s
}

// dagEdge draws one edge's policy and tuning knobs.
func (g *Gen) dagEdge(from, to *dag.Stage) dag.Edge {
	e := dag.Edge{From: from.Name, To: to.Name}
	switch {
	case from.Replicas == 1 && to.Replicas == 1 && g.rng.Intn(2) == 0:
		// "": exercise auto-resolution (pair on a 1:1 edge). Wider
		// edges must not stay auto — "" resolves to shared there, which
		// is illegal into an interior multi-replica consumer.
	case from.Replicas == to.Replicas && g.rng.Intn(2) == 0:
		e.Policy = dag.PolicyPair
	case to.Replicas == 1 && g.rng.Intn(4) == 0:
		e.Policy = dag.PolicyShared // static M:1 fan-in on one queue
	default:
		e.Policy = dag.PolicyShard
	}
	if g.rng.Intn(3) == 0 {
		e.Lines = 1 + g.rng.Intn(4)
	}
	if g.rng.Intn(3) == 0 {
		e.Window = 1 + g.rng.Intn(8)
	}
	return e
}

// dagSource picks a source stage's drive: closed-loop counts mostly,
// with open-loop arrivals and recorded-trace replay in the mix.
func (g *Gen) dagSource(st *dag.Stage) {
	switch g.rng.Intn(6) {
	case 0:
		st.Replay = g.dagTrace()
		if g.rng.Intn(2) == 0 {
			st.WorkPerByte = uint64(1 + g.rng.Intn(3))
		}
	case 1:
		st.Messages = 4 + g.rng.Intn(40)
		st.Arrival = g.arrival()
	default:
		st.Messages = 4 + g.rng.Intn(40)
	}
}

// dagTrace draws a short sorted recorded trace.
func (g *Gen) dagTrace() []dag.TraceEvent {
	evs := make([]dag.TraceEvent, 3+g.rng.Intn(28))
	at := uint64(g.rng.Intn(100))
	for i := range evs {
		evs[i] = dag.TraceEvent{At: at, Work: uint64(g.rng.Intn(60)), Size: uint64(g.rng.Intn(64))}
		at += uint64(g.rng.Intn(250))
	}
	return evs
}

// dagDist draws a per-stage compute distribution across all three
// kinds (nil = no compute).
func (g *Gen) dagDist() *dag.Dist {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return &dag.Dist{Mean: uint64(g.rng.Intn(80))}
	case 2:
		lo := uint64(g.rng.Intn(50))
		return &dag.Dist{Kind: dag.DistUniform, Min: lo, Max: lo + uint64(g.rng.Intn(80))}
	default:
		return &dag.Dist{Kind: dag.DistExp, Mean: uint64(1 + g.rng.Intn(60))}
	}
}

// arrival draws a random open-loop arrival spec. Mean gaps span
// saturation (every arrival queues behind the previous) through sparse
// (the schedule paces the run); storms and diurnal ramps appear
// occasionally so campaigns cover the overlay paths too.
func (g *Gen) arrival() *traffic.Spec {
	sp := &traffic.Spec{
		Seed:    g.rng.Uint64(),
		MeanGap: uint64(5 + g.rng.Intn(300)), // 5..304 ticks
	}
	switch g.rng.Intn(3) {
	case 0: // poisson (default spelling exercised too)
		if g.rng.Intn(2) == 0 {
			sp.Process = traffic.Poisson
		}
	case 1:
		sp.Process = traffic.MMPP
		if g.rng.Intn(2) == 0 {
			sp.BurstyGap = 1 + uint64(g.rng.Intn(20))
			sp.MeanDwell = float64(4 + g.rng.Intn(40))
		}
	case 2:
		sp.Process = traffic.Pareto
		sp.Alpha = 1.1 + float64(g.rng.Intn(20))/10 // 1.1..3.0
	}
	if g.rng.Intn(3) == 0 {
		sp.Users = 1 + g.rng.Intn(32)
	}
	if g.rng.Intn(4) == 0 {
		sp.StormEvery = uint64(500 + g.rng.Intn(4000))
		sp.StormBurst = 2 + g.rng.Intn(12)
	}
	if g.rng.Intn(4) == 0 {
		sp.RampPeriod = uint64(1000 + g.rng.Intn(8000))
		sp.RampPeak = float64(2 + g.rng.Intn(6))
	}
	return sp
}

// named picks a real Table 2 benchmark. ping-pong and incast dominate
// (they finish fast); the FIR chain appears rarely and with a trimmed
// algorithm list to bound campaign time.
func (g *Gen) named(c *Case) {
	switch g.rng.Intn(8) {
	case 0:
		c.Spec.Benchmark = "FIR"
		c.Spec.Algorithms = []string{spamer.AlgBaseline, g.specAlg()}
	case 1, 2, 3:
		c.Spec.Benchmark = "incast"
	default:
		c.Spec.Benchmark = "ping-pong"
	}
}

func (g *Gen) specAlg() string {
	return []string{spamer.AlgZeroDelay, spamer.AlgAdaptive, spamer.AlgTuned}[g.rng.Intn(3)]
}

// knobs randomizes the hardware and pressure knobs shared by both case
// families.
func (g *Gen) knobs(c *Case) {
	if len(c.Spec.Algorithms) == 0 {
		algs := []string{spamer.AlgBaseline, g.specAlg()}
		if g.rng.Intn(2) == 0 {
			if extra := g.specAlg(); extra != algs[1] {
				algs = append(algs, extra)
			}
		}
		c.Spec.Algorithms = algs
	}
	switch g.rng.Intn(4) {
	case 0:
		c.Spec.HopLatency = uint64(4 + g.rng.Intn(45)) // 4..48
	case 1:
		c.Spec.Channels = 1 + g.rng.Intn(2)
	}
	if g.rng.Intn(4) == 0 {
		// Small device tables: NACK backpressure and retry pressure.
		c.Spec.SRDEntries = []int{8, 16, 32}[g.rng.Intn(3)]
	}
	if g.rng.Intn(8) == 0 {
		c.Spec.NoInline = true
	}
	if usesAlg(c.Spec.Algorithms, spamer.AlgTuned) && g.rng.Intn(3) == 0 {
		c.Spec.Tuned = &experiments.TunedSpec{
			Zeta:  uint64(64 + g.rng.Intn(1024)),
			Tau:   uint64(16 + g.rng.Intn(256)),
			Delta: uint64(8 + g.rng.Intn(128)),
			Alpha: uint64(1 + g.rng.Intn(3)),
			Beta:  uint64(1 + g.rng.Intn(4)),
		}
	}
	// Eviction pressure: every message must still arrive exactly once
	// while lines keep losing residency.
	if g.rng.Intn(4) == 0 {
		c.EvictEvery = uint64(300 + g.rng.Intn(2700))
	}
	if c.Spec.Shape != nil {
		c.Spec.Benchmark = "synthetic"
	}
	if c.Spec.Shape != nil && c.Spec.Shape.DAG != nil {
		// Keep the small-tables NACK pressure, but never hand a DAG
		// fewer prodBuf slots than queues: that voids the device's
		// per-SQI reservation and manufactures a deadlock. An exact
		// match (sharedCap 0, reserved slots only) is the maximum
		// legal backpressure.
		q := c.Spec.Shape.DAG.Queues()
		if c.Spec.SRDEntries > 0 && c.Spec.SRDEntries < q {
			c.Spec.SRDEntries = q
		}
		if c.Spec.SRDEntries == 0 && q > config.SRDEntries {
			c.Spec.SRDEntries = q
		}
	}
}

func usesAlg(algs []string, want string) bool {
	for _, a := range algs {
		if a == want {
			return true
		}
	}
	return false
}

// SeedFromBytes derives a generator seed from raw fuzz input, mixing
// every byte so small input mutations reach distinct cases.
func SeedFromBytes(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h ^ uint64(len(data))<<32
}
