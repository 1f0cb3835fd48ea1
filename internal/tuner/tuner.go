// Package tuner implements the paper's stated future work (§3.5/§6):
// "we could search to find a more optimal set of parameters for each
// benchmark and reconfigure those parameters dynamically". It provides
// a deterministic coordinate-descent search over the tuned algorithm's
// (ζ, τ, δ, α, β) space against any workload, and scores candidates by
// the Figure 11 objective — distance from the origin in normalized
// (delay, energy) space.
package tuner

import (
	"context"
	"fmt"
	"math"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/energy"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// Candidate is one evaluated parameter set.
type Candidate struct {
	Params     config.TunedParams
	Ticks      uint64
	DelayNorm  float64
	EnergyNorm float64
	Score      float64 // sqrt(delay² + energy²); lower is better
}

// Objective weights the two normalized axes; the default (1, 1) is the
// Euclidean Figure 11 distance.
type Objective struct {
	DelayWeight  float64
	EnergyWeight float64
}

// DefaultObjective returns the Figure 11 distance objective.
func DefaultObjective() Objective { return Objective{DelayWeight: 1, EnergyWeight: 1} }

func (o Objective) score(delay, energyN float64) float64 {
	return math.Sqrt(o.DelayWeight*delay*delay + o.EnergyWeight*energyN*energyN)
}

// Search runs coordinate descent from the paper's published set: each
// round tries the neighbouring values of every parameter and moves to
// the best improvement, stopping when no parameter move helps or after
// maxRounds. The search is deterministic (the simulator is).
type Search struct {
	Workload  *workloads.Workload
	Scale     int
	Objective Objective
	MaxRounds int

	// Workers bounds the harness pool that evaluates each round's
	// candidate neighbours concurrently (<= 0 selects GOMAXPROCS).
	// Every candidate is an independent deterministic simulation, and
	// the round's winner is folded in proposal order, so the search
	// trajectory is identical at any worker count.
	Workers int

	evals int
	cache map[config.TunedParams]Candidate
	base  spamer.Result
}

// NewSearch prepares a search for the named benchmark.
func NewSearch(bench string, scale int) (*Search, error) {
	w, ok := workloads.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("tuner: unknown benchmark %q", bench)
	}
	if scale <= 0 {
		scale = 1
	}
	return &Search{
		Workload:  w,
		Scale:     scale,
		Objective: DefaultObjective(),
		MaxRounds: 8,
		cache:     map[config.TunedParams]Candidate{},
	}, nil
}

// Evals reports how many simulator runs the search consumed.
func (s *Search) Evals() int { return s.evals }

func (s *Search) eval(p config.TunedParams) Candidate {
	return s.evalBatch([]config.TunedParams{p})[0]
}

// evalBatch evaluates every uncached parameter set on the harness pool,
// then returns candidates in argument order. Simulator runs happen
// concurrently; cache and counter updates happen on this goroutine
// after the pool drains, keeping the search itself single-threaded.
func (s *Search) evalBatch(ps []config.TunedParams) []Candidate {
	var todo []config.TunedParams
	queued := map[config.TunedParams]bool{}
	for _, p := range ps {
		if _, ok := s.cache[p]; !ok && !queued[p] {
			queued[p] = true
			todo = append(todo, p)
		}
	}
	if len(todo) > 0 {
		tasks := make([]harness.Task[spamer.Result], len(todo))
		for i, p := range todo {
			p := p
			tasks[i] = harness.Task[spamer.Result]{
				Label: s.Workload.Name + "/" + p.String(),
				Run: func(ctx context.Context) (spamer.Result, error) {
					return s.Workload.Run(spamer.Config{
						Algorithm: spamer.AlgTuned,
						Tuned:     p,
					}, s.Scale), nil
				},
			}
		}
		outs, _ := harness.Run(context.Background(), tasks, harness.Options{Workers: s.Workers})
		for i, o := range outs {
			if o.Err != nil {
				panic(o.Err)
			}
			s.evals++
			c := Candidate{
				Params:     todo[i],
				Ticks:      o.Value.Ticks,
				DelayNorm:  energy.DelayNorm(o.Value, s.base),
				EnergyNorm: energy.EnergyNorm(o.Value, s.base),
			}
			c.Score = s.Objective.score(c.DelayNorm, c.EnergyNorm)
			s.cache[todo[i]] = c
		}
	}
	out := make([]Candidate, len(ps))
	for i, p := range ps {
		out[i] = s.cache[p]
	}
	return out
}

// neighbours proposes the adjacent values for each parameter: halving
// and doubling for the magnitude parameters, ±1 for the small ones.
func neighbours(p config.TunedParams) []config.TunedParams {
	var out []config.TunedParams
	scaleUp := func(v uint64) uint64 { return v * 2 }
	scaleDn := func(v uint64) uint64 {
		if v <= 8 {
			return 8
		}
		return v / 2
	}
	mut := func(f func(*config.TunedParams)) {
		q := p
		f(&q)
		if q != p {
			out = append(out, q)
		}
	}
	mut(func(q *config.TunedParams) { q.Zeta = scaleUp(q.Zeta) })
	mut(func(q *config.TunedParams) { q.Zeta = scaleDn(q.Zeta) })
	mut(func(q *config.TunedParams) { q.Tau = scaleUp(q.Tau) })
	mut(func(q *config.TunedParams) { q.Tau = scaleDn(q.Tau) })
	mut(func(q *config.TunedParams) { q.Delta = scaleUp(q.Delta) })
	mut(func(q *config.TunedParams) { q.Delta = scaleDn(q.Delta) })
	mut(func(q *config.TunedParams) {
		if q.Alpha < 3 {
			q.Alpha++
		}
	})
	mut(func(q *config.TunedParams) {
		if q.Alpha > 1 {
			q.Alpha--
		}
	})
	mut(func(q *config.TunedParams) { q.Beta += 2 })
	mut(func(q *config.TunedParams) {
		if q.Beta > 1 {
			q.Beta -= 1
		}
	})
	return out
}

// Result is the outcome of a search.
type Result struct {
	Benchmark string
	Start     Candidate // the paper's published parameters
	Best      Candidate
	Rounds    int
	Evals     int
	// Improvement is Start.Score / Best.Score (>= 1).
	Improvement float64
}

// Run executes the search.
func (s *Search) Run() Result {
	// Baseline for normalization.
	s.base = s.Workload.Run(spamer.Config{Algorithm: spamer.AlgBaseline}, s.Scale)

	start := s.eval(config.DefaultTuned())
	best := start
	rounds := 0
	for ; rounds < s.MaxRounds; rounds++ {
		improved := false
		// Evaluate the whole neighbourhood concurrently, then fold the
		// winner in proposal order — the same trajectory the sequential
		// loop walked.
		for _, c := range s.evalBatch(neighbours(best.Params)) {
			if c.Score < best.Score-1e-9 {
				best = c
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	imp := 1.0
	if best.Score > 0 {
		imp = start.Score / best.Score
	}
	return Result{
		Benchmark:   s.Workload.Name,
		Start:       start,
		Best:        best,
		Rounds:      rounds,
		Evals:       s.evals,
		Improvement: imp,
	}
}
