package oracle

import (
	"fmt"

	"spamer"
	"spamer/internal/oracle/gen"
	"spamer/internal/workloads"
)

// RunReport is the outcome of one invariant-checked simulation.
type RunReport struct {
	// Result holds the run's metrics; valid only when Panic is empty.
	Result spamer.Result
	// Delivery is the observed delivered-message record (always valid —
	// on a panic it records what arrived before the failure).
	Delivery Delivery
	// TraceHash is the dispatch-trace hash (when tracing was enabled).
	TraceHash uint64
	// Panic is the recovered Run panic, if any ("" = completed).
	Panic string
	// Violations are the per-run invariant failures, including a
	// "run-panic" entry when Run panicked.
	Violations []Violation
}

// RunChecked builds w on a fresh system under cfg, attaches a Checker,
// drives the run to completion (recovering a panicking run — e.g. the
// deadlock a lost message causes — into the report), and returns the
// full invariant-checked outcome.
func RunChecked(w *workloads.Workload, cfg spamer.Config, scale int, trace bool) RunReport {
	if scale <= 0 {
		scale = 1
	}
	sys := spamer.NewSystem(cfg)
	if trace {
		sys.EnableDispatchTrace()
	}
	chk := Attach(sys)
	var rep RunReport
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep.Panic = fmt.Sprint(r)
			}
		}()
		w.Build(sys, scale)
		rep.Result = sys.Run()
		if trace {
			rep.TraceHash = sys.DispatchTraceHash()
		}
	}()
	var res *spamer.Result
	if rep.Panic == "" {
		res = &rep.Result
	} else {
		rep.Violations = append(rep.Violations, Violation{Invariant: "run-panic", Detail: rep.Panic})
	}
	rep.Violations = append(rep.Violations, chk.Finish(res)...)
	rep.Delivery = chk.Delivery()
	return rep
}

// CaseReport is the outcome of checking one generated case.
type CaseReport struct {
	Case       gen.Case    `json:"case"`
	Runs       int         `json:"runs"`
	Violations []Violation `json:"violations,omitempty"`
}

// Failed reports whether any invariant was violated.
func (r *CaseReport) Failed() bool { return len(r.Violations) > 0 }

// CheckCase runs one case under the full invariant battery:
//
//  1. every algorithm runs with the per-run invariants (conservation,
//     FIFO, payload integrity, structural, counter balance) — twice for
//     synthetic shapes, to pin determinism via the dispatch-trace hash;
//  2. each SPAMeR algorithm's delivery record is compared against the
//     baseline VL run (speculative-push safety).
func CheckCase(cs gen.Case) CaseReport {
	rep := CaseReport{Case: cs}
	if err := cs.Spec.Validate(); err != nil {
		rep.Violations = append(rep.Violations, Violation{Invariant: "invalid-case", Detail: err.Error()})
		return rep
	}
	w, _ := cs.Spec.Workload() // Validate resolved it
	scale := cs.Spec.Scale
	algs := withBaselineFirst(cs.Spec.Algorithms)

	collect := func(ctx string, vs []Violation) {
		for _, v := range vs {
			v.Context = ctx
			if len(rep.Violations) < maxViolations {
				rep.Violations = append(rep.Violations, v)
			}
		}
	}

	var baseline *Delivery
	for _, alg := range algs {
		cfg := cs.Spec.SystemConfig(alg)
		cfg.EvictEvery = cs.EvictEvery
		ctx := "alg=" + alg
		r := RunChecked(w, cfg, scale, true)
		rep.Runs++
		collect(ctx, r.Violations)
		if cs.Spec.Shape != nil && r.Panic == "" {
			// Determinism: an identical run must dispatch the identical
			// trace. Shapes only — named benchmarks take long enough
			// that doubling them would dominate campaign time, and the
			// golden tests already pin them.
			again := RunChecked(w, cfg, scale, true)
			rep.Runs++
			collect(ctx+" (repeat)", again.Violations)
			if again.TraceHash != r.TraceHash {
				collect(ctx, []Violation{{Invariant: "nondeterminism",
					Detail: fmt.Sprintf("repeat run dispatch trace %#x != %#x", again.TraceHash, r.TraceHash)}})
			}
		}
		switch {
		case alg == spamer.AlgBaseline:
			d := r.Delivery
			baseline = &d
		case baseline != nil:
			// Differential replay: SPAMeR must deliver the exact
			// per-link sequences the VL baseline delivered.
			for _, diff := range CompareDeliveries(*baseline, r.Delivery) {
				collect(ctx, []Violation{{Invariant: "differential-delivery",
					Detail: "vs vl baseline: " + diff}})
			}
		}
	}
	return rep
}

func withBaselineFirst(algs []string) []string {
	if len(algs) == 0 {
		return spamer.Configs()
	}
	out := []string{spamer.AlgBaseline}
	for _, a := range algs {
		if a != spamer.AlgBaseline {
			out = append(out, a)
		}
	}
	return out
}
