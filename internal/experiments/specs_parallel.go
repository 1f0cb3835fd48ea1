package experiments

import (
	"context"
	"sort"

	"spamer"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// SpecResult is one spec's slot in a RunSpecsParallel result: the
// outcomes of the algorithms that ran, plus the first failure if any
// run died (watchdog panic, timeout, cancellation) or the spec itself
// was invalid. Slots stay in spec order, so a slot's position is its
// spec's index.
type SpecResult struct {
	Outcomes []Outcome
	Err      error
}

// RunSpecsParallel fans every (spec, algorithm) pair of the list across
// the harness pool and reassembles per-spec outcomes in spec order,
// with the exact SpeedupOverVL and Repeat semantics of the sequential
// Spec.Run. Invalid specs fail fast in their slot without occupying a
// worker; a failed run surfaces as its spec's Err while the other
// specs' results — and the spec's own completed algorithms — are kept.
//
// Each run resolves its spec's workload when it starts and writes its
// outcome straight into its spec's result slot, so beside the results a
// batch holds one offset per spec and the pool's error slots.
func RunSpecsParallel(ctx context.Context, specs []Spec, opts harness.Options) []SpecResult {
	results := make([]SpecResult, len(specs))
	// Spec i owns the flat run indices first[i] to first[i+1]-1, one per
	// algorithm in order; an invalid spec owns none.
	first := make([]int, len(specs)+1)
	n := 0
	for i := range specs {
		first[i] = n
		s := &specs[i]
		if err := s.Validate(); err != nil {
			results[i].Err = err
			continue
		}
		results[i].Outcomes = make([]Outcome, len(s.algorithms()))
		n += len(results[i].Outcomes)
	}
	first[len(specs)] = n
	// at resolves a flat run index to its spec and algorithm position:
	// the last spec whose first run is at or before k.
	at := func(k int) (i, j int) {
		i = sort.SearchInts(first, k+1) - 1
		return i, k - first[i]
	}

	errs, _ := harness.Each(ctx, n, opts,
		func(k int) string {
			i, j := at(k)
			return specs[i].Benchmark + "/" + specs[i].algorithms()[j]
		},
		func(_ context.Context, k int) error {
			// The body ignores its context: a run is not interruptible,
			// so cancellation acts when the pool claims an index.
			i, j := at(k)
			s := &specs[i]
			w, _ := s.workload()
			// Keep only the outcome: the speedup needs just its Ticks.
			results[i].Outcomes[j], _ = s.runAlg(w, s.algorithms()[j], max(s.Scale, 1))
			return nil
		})

	// Normalize each spec sequentially in algorithm order so the
	// running-baseline speedup matches Spec.Run, and compact out the
	// algorithms whose run failed.
	for i := range specs {
		r := &results[i]
		if r.Err != nil {
			continue
		}
		var base spamer.Result // Speedup reads only Ticks
		haveBase := false
		kept := r.Outcomes[:0]
		for j, alg := range specs[i].algorithms() {
			if errs != nil && errs[first[i]+j] != nil {
				if r.Err == nil {
					r.Err = errs[first[i]+j]
				}
				continue
			}
			out := r.Outcomes[j]
			res := spamer.Result{Ticks: out.Ticks}
			if alg == spamer.AlgBaseline {
				base, haveBase = res, true
			}
			if haveBase {
				out.SpeedupOverVL = res.Speedup(base)
			}
			kept = append(kept, out)
		}
		if len(kept) == 0 {
			kept = nil
		}
		r.Outcomes = kept
	}
	return results
}

// Workload resolves the spec's benchmark, honouring the extensions
// gate. It is the exported face of the private workload() lookup for
// callers outside the package.
func (s *Spec) Workload() (*workloads.Workload, bool) { return s.workload() }
