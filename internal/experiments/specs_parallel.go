package experiments

import (
	"context"

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
func RunSpecsParallel(ctx context.Context, specs []Spec, opts harness.Options) []SpecResult {
	type slot struct{ spec, alg int }

	results := make([]SpecResult, len(specs))
	algsBySpec := make([][]string, len(specs))
	perSpec := make([][]*harness.Outcome[Outcome], len(specs))
	var tasks []harness.Task[Outcome]
	var slots []slot
	for i := range specs {
		s := &specs[i]
		if err := s.Validate(); err != nil {
			results[i].Err = err
			continue
		}
		algs := s.Algorithms
		if len(algs) == 0 {
			algs = spamer.Configs()
		}
		algsBySpec[i] = algs
		perSpec[i] = make([]*harness.Outcome[Outcome], len(algs))
		w, _ := s.workload()
		scale := s.Scale
		if scale == 0 {
			scale = 1
		}
		for j, alg := range algs {
			alg := alg
			slots = append(slots, slot{spec: i, alg: j})
			tasks = append(tasks, harness.Task[Outcome]{
				Label: s.Benchmark + "/" + alg,
				Run: func(ctx context.Context) (Outcome, error) {
					// Keep only the outcome: the speedup needs just its
					// Ticks, and a batch holds every run until it ends.
					o, _ := s.runAlg(w, alg, scale)
					return o, nil
				},
			})
		}
	}

	outs, _ := harness.Run(ctx, tasks, opts)
	for k := range outs {
		sl := slots[k]
		perSpec[sl.spec][sl.alg] = &outs[k]
	}

	// Reassemble each spec sequentially in algorithm order so the
	// running-baseline speedup normalization matches Spec.Run.
	for i := range specs {
		if results[i].Err != nil {
			continue
		}
		var base *spamer.Result
		for j, alg := range algsBySpec[i] {
			o := perSpec[i][j]
			if o.Err != nil {
				if results[i].Err == nil {
					results[i].Err = o.Err
				}
				continue
			}
			out := o.Value
			res := spamer.Result{Ticks: out.Ticks} // Speedup reads only Ticks
			if alg == spamer.AlgBaseline {
				base = &res
			}
			if base != nil {
				out.SpeedupOverVL = res.Speedup(*base)
			}
			results[i].Outcomes = append(results[i].Outcomes, out)
		}
	}
	return results
}

// Workload resolves the spec's benchmark, honouring the extensions
// gate. It is the exported face of the private workload() lookup for
// callers outside the package.
func (s *Spec) Workload() (*workloads.Workload, bool) { return s.workload() }
