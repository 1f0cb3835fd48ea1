// Package dag implements a small JSON DSL for arbitrary producer/
// consumer DAG workloads: named stages with replica counts, per-stage
// compute-time distributions, edge fan-in/fan-out policies, and an
// optional recorded-trace replay mode. A Spec compiles into a runnable
// workload (see build.go) whose structure is entirely data, so DAG
// scenarios flow unchanged through experiment specs, the service
// cache, the open-loop traffic engine, and the verification oracle.
//
// # Model
//
// A stage is a pool of identical replica threads. A stage with no
// incoming edges is a source: it emits a fixed number of messages per
// replica, timed by a compute distribution, an open-loop arrival
// process, or a recorded trace. Every other stage consumes one message
// at a time from the fair-merged union of its incoming edges, charges
// one draw of its compute distribution, and emits one message on every
// outgoing edge — a broadcast, so per-replica message counts propagate
// statically through the graph in topological order.
//
// An edge's policy selects its queue realization:
//
//	pair    replicas match pairwise: R strictly-1:1 queues (replica i
//	        of the producer feeds replica i of the consumer). Requires
//	        equal replica counts.
//	shard   M producers x N consumers via M*N strictly-1:1 queues;
//	        producer p routes its j-th message to consumer (j+p) mod N,
//	        so per-queue counts stay static and balanced.
//	shared  one M:N queue; when the consumer stage has more than one
//	        replica the per-replica share is dynamic and the stage
//	        drains through a WorkCounter.
//
// An empty policy resolves to pair on 1:1 edges and shared otherwise.
// Replicas are pinned round-robin to cores in spawn (stage-major) order.
//
// # Determinism
//
// Everything is a pure function of (Spec, scale): stage and edge order
// are significant (they fix spawn order, and with it core placement
// and queue creation order), compute draws come from a splitmix64
// stream seeded by (Seed, stage, replica), and arrival schedules
// follow internal/traffic's platform-stable contract. Two runs of the
// same canonical spec dispatch bit-identical event traces.
package dag

import (
	"fmt"

	"spamer/internal/traffic"
	"spamer/internal/vlq"
)

// Size caps: generous bounds that keep fuzzed and service-submitted
// specs from exploding into multi-gigabyte simulations.
const (
	MaxStages   = 128
	MaxReplicas = 256
	MaxThreads  = 4096
	MaxQueues   = 8192
	MaxReplay   = 1 << 20
	// MaxLines and MaxWindow cap the per-edge tuning knobs: lines
	// allocate real cache-line state per consumer endpoint, and windows
	// admit real in-flight pushes, so an adversarial spec (the service
	// accepts DAG JSON over HTTP) must not pick them astronomically.
	MaxLines  = 4096
	MaxWindow = 4096
	// MaxTraceTick bounds replay timestamps (see MaxWork in dist.go).
	MaxTraceTick = 1 << 40
)

// Spec is the JSON DSL root: a named DAG of stages and edges.
type Spec struct {
	// Name labels the scenario in reports and diagnostic names.
	Name string `json:"name,omitempty"`
	// Seed feeds every stage's compute-distribution stream (mixed with
	// the stage index and replica id, so streams never collide).
	Seed uint64 `json:"seed,omitempty"`

	Stages []Stage `json:"stages"`
	Edges  []Edge  `json:"edges,omitempty"`
}

// Stage is one pool of replica threads.
type Stage struct {
	Name string `json:"name"`
	// Replicas is the thread count; it must be explicit (>= 1) so a
	// spec never silently runs a different shape than it reads.
	Replicas int `json:"replicas"`

	// Messages is the per-replica message count. Only source stages
	// (no incoming edges) set it; interior counts are derived.
	Messages int `json:"messages,omitempty"`

	// Work is the per-message compute-time distribution (nil = none).
	Work *Dist `json:"work,omitempty"`

	// Arrival switches a source stage to open-loop: replicas follow
	// the seeded arrival schedule (endpoint id selects the stream)
	// instead of pushing as fast as the queue admits. Requires
	// Messages; mutually exclusive with Replay.
	Arrival *traffic.Spec `json:"arrival,omitempty"`

	// Replay feeds a source stage from a recorded trace instead of a
	// distribution: events split round-robin across replicas, each
	// replayed open-loop at its recorded timestamp. Counts come from
	// the trace, so scale does not multiply them.
	Replay []TraceEvent `json:"replay,omitempty"`
	// ReplayFile names an external JSON trace (an array of
	// TraceEvent). Loaders resolve it into Replay before validation —
	// canonical hashing is always over resolved events.
	ReplayFile string `json:"replay_file,omitempty"`
	// WorkPerByte adds Size-proportional compute to each replayed
	// event (work = ev.work + ev.size * work_per_byte).
	WorkPerByte uint64 `json:"work_per_byte,omitempty"`
}

// Edge is one directed stage-to-stage connection.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Policy is "", "pair", "shard", or "shared" (see the package
	// comment for realizations).
	Policy string `json:"policy,omitempty"`
	// Lines sizes each consumer endpoint's line page (0 = 2).
	Lines int `json:"lines,omitempty"`
	// Window bounds each producer's in-flight pushes (0 = default).
	Window int `json:"window,omitempty"`
}

// TraceEvent is one recorded message: an absolute emission tick, an
// explicit compute cost, and a payload size in bytes.
type TraceEvent struct {
	At   uint64 `json:"at"`
	Work uint64 `json:"work,omitempty"`
	Size uint64 `json:"size,omitempty"`
}

// Edge policies.
const (
	PolicyPair   = "pair"
	PolicyShard  = "shard"
	PolicyShared = "shared"
)

// stageIndex maps stage names to indices, erroring on duplicates.
func (s *Spec) stageIndex() (map[string]int, error) {
	idx := make(map[string]int, len(s.Stages))
	for i := range s.Stages {
		n := s.Stages[i].Name
		if n == "" {
			return nil, fmt.Errorf("dag: stage %d has no name", i)
		}
		if _, dup := idx[n]; dup {
			return nil, fmt.Errorf("dag: duplicate stage name %q", n)
		}
		idx[n] = i
	}
	return idx, nil
}

// topoOrder returns a topological order of stage indices (stable:
// among ready stages, declaration order wins) or an error naming a
// stage on a cycle.
func (s *Spec) topoOrder(idx map[string]int) ([]int, error) {
	n := len(s.Stages)
	indeg := make([]int, n)
	for _, e := range s.Edges {
		indeg[idx[e.To]]++
	}
	order := make([]int, 0, n)
	done := make([]bool, n)
	for len(order) < n {
		progressed := false
		for i := 0; i < n; i++ {
			if done[i] || indeg[i] > 0 {
				continue
			}
			done[i] = true
			order = append(order, i)
			for _, e := range s.Edges {
				if idx[e.From] == i {
					indeg[idx[e.To]]--
				}
			}
			progressed = true
		}
		if !progressed {
			for i := 0; i < n; i++ {
				if !done[i] {
					return nil, fmt.Errorf("dag: cycle through stage %q", s.Stages[i].Name)
				}
			}
		}
	}
	return order, nil
}

// inDegree counts incoming edges per stage.
func (s *Spec) inDegree(idx map[string]int) []int {
	indeg := make([]int, len(s.Stages))
	for _, e := range s.Edges {
		indeg[idx[e.To]]++
	}
	return indeg
}

// resolvePolicy returns the concrete policy of e given its endpoint
// replica counts (the "" auto policy resolves to pair on 1:1 edges and
// shared otherwise).
func resolvePolicy(e *Edge, from, to *Stage) string {
	if e.Policy != "" {
		return e.Policy
	}
	if from.Replicas <= 1 && to.Replicas <= 1 {
		return PolicyPair
	}
	return PolicyShared
}

// Validate rejects specs that cannot build a runnable workload. Every
// rule mirrors a concrete build-time failure; anything Validate
// accepts must build and run deterministically.
func (s *Spec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("dag: spec needs at least one stage")
	}
	if len(s.Stages) > MaxStages {
		return fmt.Errorf("dag: %d stages exceeds cap %d", len(s.Stages), MaxStages)
	}
	idx, err := s.stageIndex()
	if err != nil {
		return err
	}
	threads := 0
	for i := range s.Stages {
		st := &s.Stages[i]
		if st.Replicas < 1 {
			return fmt.Errorf("dag: stage %q needs replicas >= 1, got %d", st.Name, st.Replicas)
		}
		if st.Replicas > MaxReplicas {
			return fmt.Errorf("dag: stage %q replicas %d exceeds cap %d", st.Name, st.Replicas, MaxReplicas)
		}
		threads += st.Replicas
		if st.Messages < 0 {
			return fmt.Errorf("dag: stage %q has negative messages", st.Name)
		}
		if st.Work != nil {
			if err := st.Work.validate(); err != nil {
				return fmt.Errorf("dag: stage %q: %w", st.Name, err)
			}
		}
		if st.Arrival != nil {
			if err := st.Arrival.Validate(); err != nil {
				return fmt.Errorf("dag: stage %q: %w", st.Name, err)
			}
		}
		if len(st.Replay) > MaxReplay {
			return fmt.Errorf("dag: stage %q replay length %d exceeds cap %d", st.Name, len(st.Replay), MaxReplay)
		}
		for j := range st.Replay {
			ev := &st.Replay[j]
			if j > 0 && ev.At < st.Replay[j-1].At {
				return fmt.Errorf("dag: stage %q replay timestamps must be non-decreasing (event %d)", st.Name, j)
			}
			if ev.At > MaxTraceTick || ev.Work > MaxWork || ev.Size > MaxWork {
				return fmt.Errorf("dag: stage %q replay event %d exceeds parameter caps", st.Name, j)
			}
		}
		if st.WorkPerByte > MaxWork {
			return fmt.Errorf("dag: stage %q work_per_byte exceeds cap %d", st.Name, uint64(MaxWork))
		}
		if st.ReplayFile != "" && len(st.Replay) == 0 {
			return fmt.Errorf("dag: stage %q has unresolved replay file %q — call LoadTraces first", st.Name, st.ReplayFile)
		}
	}
	if threads > MaxThreads {
		return fmt.Errorf("dag: %d total replicas exceeds cap %d", threads, MaxThreads)
	}

	type pair struct{ from, to int }
	seen := make(map[pair]bool, len(s.Edges))
	queues := 0
	for i := range s.Edges {
		e := &s.Edges[i]
		fi, ok := idx[e.From]
		if !ok {
			return fmt.Errorf("dag: edge %d references unknown stage %q", i, e.From)
		}
		ti, ok := idx[e.To]
		if !ok {
			return fmt.Errorf("dag: edge %d references unknown stage %q", i, e.To)
		}
		if fi == ti {
			return fmt.Errorf("dag: edge %d is a self-loop on %q", i, e.From)
		}
		if seen[pair{fi, ti}] {
			return fmt.Errorf("dag: duplicate edge %q -> %q", e.From, e.To)
		}
		seen[pair{fi, ti}] = true
		if e.Lines < 0 || e.Window < 0 {
			return fmt.Errorf("dag: edge %q -> %q has a negative parameter", e.From, e.To)
		}
		if e.Lines > MaxLines || e.Window > MaxWindow {
			return fmt.Errorf("dag: edge %q -> %q lines/window exceed cap %d", e.From, e.To, MaxLines)
		}
		from, to := &s.Stages[fi], &s.Stages[ti]
		switch resolvePolicy(e, from, to) {
		case PolicyPair:
			if from.Replicas != to.Replicas {
				return fmt.Errorf("dag: pair edge %q -> %q needs equal replicas (%d vs %d)",
					e.From, e.To, from.Replicas, to.Replicas)
			}
			queues += from.Replicas
		case PolicyShard:
			queues += from.Replicas * to.Replicas
		case PolicyShared:
			queues++
		default:
			return fmt.Errorf("dag: edge %q -> %q has unknown policy %q", e.From, e.To, e.Policy)
		}
	}
	if queues > MaxQueues {
		return fmt.Errorf("dag: %d queues exceeds cap %d", queues, MaxQueues)
	}

	if _, err := s.topoOrder(idx); err != nil {
		return err
	}

	indeg := s.inDegree(idx)
	for i := range s.Stages {
		st := &s.Stages[i]
		if indeg[i] == 0 {
			// Source stage: exactly one timing driver.
			if st.Messages > 0 && len(st.Replay) > 0 {
				return fmt.Errorf("dag: source stage %q sets both messages and replay", st.Name)
			}
			if st.Messages == 0 && len(st.Replay) == 0 {
				return fmt.Errorf("dag: source stage %q needs messages or replay", st.Name)
			}
			if st.Arrival != nil {
				if len(st.Replay) > 0 {
					return fmt.Errorf("dag: source stage %q sets both arrival and replay", st.Name)
				}
			}
		} else {
			if st.Messages != 0 {
				return fmt.Errorf("dag: interior stage %q must not set messages (counts are derived)", st.Name)
			}
			if st.Arrival != nil {
				return fmt.Errorf("dag: interior stage %q must not set an arrival process", st.Name)
			}
			if len(st.Replay) > 0 || st.ReplayFile != "" {
				return fmt.Errorf("dag: interior stage %q must not set replay", st.Name)
			}
		}
	}

	// Dynamic stages (shared M:N input with > 1 replica drain through a
	// WorkCounter) cannot merge other inputs or derive static output
	// counts, so the dynamic edge must be their only input and they
	// must be sinks.
	for i := range s.Edges {
		e := &s.Edges[i]
		fi, ti := idx[e.From], idx[e.To]
		from, to := &s.Stages[fi], &s.Stages[ti]
		if resolvePolicy(e, from, to) != PolicyShared || to.Replicas <= 1 {
			continue
		}
		if indeg[ti] > 1 {
			return fmt.Errorf("dag: stage %q has a dynamic shared input and other inputs — the shared edge must be its only input", e.To)
		}
		for j := range s.Edges {
			if idx[s.Edges[j].From] == ti {
				return fmt.Errorf("dag: stage %q drains a dynamic shared input and must be a sink (no outgoing edges)", e.To)
			}
		}
	}
	return nil
}

// Canonical returns the spec with dual spellings of defaults collapsed:
// auto edge policies resolved, default lines/windows zeroed, no-op work
// distributions dropped, arrival specs canonicalized, resolved replay
// files cleared, and a dead seed zeroed. Stage and edge order are
// preserved — they are semantically significant (spawn order fixes
// core placement). Two specs that build identical workloads hash
// identically through it.
func (s Spec) Canonical() Spec {
	c := s
	c.Stages = make([]Stage, len(s.Stages))
	copy(c.Stages, s.Stages)
	c.Edges = make([]Edge, len(s.Edges))
	copy(c.Edges, s.Edges)

	randomWork := false
	for i := range c.Stages {
		st := &c.Stages[i]
		if st.Work != nil {
			w := st.Work.canonical()
			if w == nil {
				st.Work = nil
			} else {
				st.Work = w
				if w.Kind == DistUniform || w.Kind == DistExp {
					randomWork = true
				}
			}
		}
		if st.Arrival != nil {
			a := st.Arrival.Canonical()
			st.Arrival = &a
		}
		if len(st.Replay) > 0 {
			st.ReplayFile = ""
			ev := make([]TraceEvent, len(st.Replay))
			copy(ev, st.Replay)
			st.Replay = ev
		}
		if len(st.Replay) == 0 && st.WorkPerByte != 0 {
			st.WorkPerByte = 0
		}
	}
	if !randomWork {
		c.Seed = 0
	}

	idx := make(map[string]int, len(c.Stages))
	for i := range c.Stages {
		idx[c.Stages[i].Name] = i
	}
	for i := range c.Edges {
		e := &c.Edges[i]
		fi, fok := idx[e.From]
		ti, tok := idx[e.To]
		if fok && tok {
			from, to := &c.Stages[fi], &c.Stages[ti]
			e.Policy = resolvePolicy(e, from, to)
			// On a 1:1 edge every policy realizes the same single
			// queue; collapse to pair.
			if from.Replicas <= 1 && to.Replicas <= 1 {
				e.Policy = PolicyPair
			}
		}
		if e.Lines == 2 {
			e.Lines = 0
		}
		if e.Window == vlq.DefaultWindow {
			e.Window = 0
		}
	}
	return c
}

// Clone deep-copies the spec — stages (with their distributions,
// arrival specs, and replay traces) and edges — so callers can mutate
// the copy freely. The oracle's shrinker relies on this: every shrink
// candidate starts from an unaliased copy of the failing case.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Stages = append([]Stage(nil), s.Stages...)
	for i := range c.Stages {
		st := &c.Stages[i]
		if st.Work != nil {
			w := *st.Work
			st.Work = &w
		}
		if st.Arrival != nil {
			a := *st.Arrival
			st.Arrival = &a
		}
		st.Replay = append([]TraceEvent(nil), st.Replay...)
	}
	c.Edges = append([]Edge(nil), s.Edges...)
	return &c
}

// Queues is the number of link-layer queues Build creates — the
// device-table footprint of the DAG (pair: R, shard: M*N, shared: 1).
// Unknown stage references contribute nothing; Validate reports them.
func (s *Spec) Queues() int {
	idx, err := s.stageIndex()
	if err != nil {
		return 0
	}
	q := 0
	for i := range s.Edges {
		e := &s.Edges[i]
		fi, fok := idx[e.From]
		ti, tok := idx[e.To]
		if !fok || !tok {
			continue
		}
		from, to := &s.Stages[fi], &s.Stages[ti]
		switch resolvePolicy(e, from, to) {
		case PolicyPair:
			q += from.Replicas
		case PolicyShard:
			q += from.Replicas * to.Replicas
		case PolicyShared:
			q++
		}
	}
	return q
}

// Threads returns the total replica count.
func (s *Spec) Threads() int {
	n := 0
	for i := range s.Stages {
		n += s.Stages[i].Replicas
	}
	return n
}

// DisplayName is the scenario label ("anon" when unnamed).
func (s *Spec) DisplayName() string {
	if s.Name == "" {
		return "anon"
	}
	return s.Name
}

// WorkloadName is the compact diagnostic name used by experiment specs
// and reports.
func (s *Spec) WorkloadName() string {
	return fmt.Sprintf("dag/%s-s%d-t%d", s.DisplayName(), len(s.Stages), s.Threads())
}
