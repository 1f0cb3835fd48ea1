package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// Score is the point's Figure 11 distance from the origin,
// sqrt(delay² + energy²); lower is better. Tune minimizes it.
func (p Figure11Point) Score() float64 {
	return math.Sqrt(p.DelayNorm*p.DelayNorm + p.EnergyNorm*p.EnergyNorm)
}

// TuneResult is the outcome of a Tune search.
type TuneResult struct {
	Benchmark string
	Start     Figure11Point // the paper's published parameters
	Best      Figure11Point
	Rounds    int
	Evals     int // tuned runs the search consumed; the baseline is not one
	// Improvement is Start.Score() / Best.Score() (>= 1).
	Improvement float64
}

// Tune implements the paper's stated future work (§3.5/§6): "we could
// search to find a more optimal set of parameters for each benchmark
// and reconfigure those parameters dynamically". It runs a
// deterministic coordinate descent over the tuned algorithm's
// (ζ, τ, δ, α, β) space on benchmark bench, scoring each candidate
// by its Figure 11 point against the VL baseline. The search starts
// from the published set; each round runs the uncached neighbours of
// the best set so far on the harness pool, then folds the winner in
// proposal order, so the trajectory is the same at any worker count.
// It stops after a round that brings no improvement, or after rounds
// rounds. A failed run ends the search with that run's *harness.Error.
func Tune(ctx context.Context, bench string, scale, rounds int, opts harness.Options) (TuneResult, error) {
	w, ok := workloads.ByName(bench)
	if !ok {
		return TuneResult{}, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	published := config.DefaultTuned()
	first, err := runAll(ctx, []run{
		{w, spamer.Config{Algorithm: spamer.AlgBaseline}, bench + "/vl"},
		tunedRun(w, published),
	}, scale, opts)
	if err != nil {
		return TuneResult{}, err
	}
	base := first[0]
	point := func(p config.TunedParams, res spamer.Result) Figure11Point {
		return normalized("tuned{"+p.String()+"}", p, res, base)
	}
	start := point(published, first[1])
	cache := map[config.TunedParams]Figure11Point{published: start}
	tr := TuneResult{Benchmark: bench, Start: start, Best: start, Evals: 1}
	for ; tr.Rounds < rounds; tr.Rounds++ {
		proposed := neighbours(tr.Best.Params)
		var runs []run
		for _, p := range proposed {
			if _, ok := cache[p]; !ok {
				runs = append(runs, tunedRun(w, p))
			}
		}
		results, err := runAll(ctx, runs, scale, opts)
		if err != nil {
			return TuneResult{}, err
		}
		for i, r := range runs {
			cache[r.cfg.Tuned] = point(r.cfg.Tuned, results[i])
		}
		tr.Evals += len(runs)
		improved := false
		for _, p := range proposed {
			if c := cache[p]; c.Score() < tr.Best.Score()-1e-9 {
				tr.Best, improved = c, true
			}
		}
		if !improved {
			break
		}
	}
	tr.Improvement = 1
	if s := tr.Best.Score(); s > 0 {
		tr.Improvement = start.Score() / s
	}
	return tr, nil
}

// neighbours proposes the adjacent values for each parameter: halving
// and doubling for the magnitude parameters, ±1 for the small ones.
// A move that leaves p as it is, or repeats an earlier proposal, is
// dropped.
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
		if q != p && !slices.Contains(out, q) {
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
