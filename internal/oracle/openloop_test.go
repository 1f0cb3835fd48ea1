package oracle

import (
	"testing"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/oracle/gen"
	"spamer/internal/traffic"
	"spamer/internal/workloads"
)

// TestOpenLoopInvariants runs a fixed open-loop chain through the full
// invariant battery: conservation and FIFO under an MMPP schedule with
// storms, a repeat run that must dispatch the identical trace, and the
// SPAMeR-vs-VL delivery differential.
func TestOpenLoopInvariants(t *testing.T) {
	cs := gen.Case{Spec: experiments.Spec{
		Benchmark: "synthetic",
		Shape: &workloads.Shape{
			Stages: 3, Messages: 300, Lines: 2, ConsWork: 15,
			Arrival: &traffic.Spec{
				Process: traffic.MMPP, Seed: 0x5eed, MeanGap: 60,
				BurstyGap: 6, MeanDwell: 12, Users: 4,
				StormEvery: 900, StormBurst: 5,
			},
		},
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgTuned},
	}}
	rep := CheckCase(cs)
	if rep.Failed() {
		t.Fatalf("open-loop chain violated invariants: %v", rep.Violations)
	}
	if want := 2 * len(cs.Spec.Algorithms); rep.Runs != want {
		t.Fatalf("checked %d runs, want %d (each algorithm plus its repeat)", rep.Runs, want)
	}
}

// TestGenMixIncludesOpenLoop pins the campaign case mix: a healthy
// fraction of generated shapes must carry open-loop arrival specs, and
// the stream must reach every arrival process plus the storm and ramp
// overlays — otherwise campaigns silently stop covering the traffic
// engine.
func TestGenMixIncludesOpenLoop(t *testing.T) {
	const n = 300
	var open, storms, ramps int
	procs := map[string]int{}
	for i := 0; i < n; i++ {
		cs := gen.New(caseSeed(0x01eaf, i)).Case()
		sh := cs.Spec.Shape
		if sh == nil || sh.Arrival == nil {
			continue
		}
		open++
		procs[sh.Arrival.Process]++
		if sh.Arrival.StormBurst > 0 {
			storms++
		}
		if sh.Arrival.RampPeak > 0 {
			ramps++
		}
		if err := cs.Spec.Validate(); err != nil {
			t.Fatalf("generated open-loop case %d invalid: %v", i, err)
		}
	}
	if open < n/10 {
		t.Fatalf("only %d/%d cases are open-loop; mix regressed", open, n)
	}
	for _, p := range []string{traffic.MMPP, traffic.Pareto} {
		if procs[p] == 0 {
			t.Fatalf("no generated case uses process %q (mix: %v)", p, procs)
		}
	}
	if procs[""]+procs[traffic.Poisson] == 0 {
		t.Fatalf("no generated case uses poisson (mix: %v)", procs)
	}
	if storms == 0 || ramps == 0 {
		t.Fatalf("overlays missing from mix: %d storms, %d ramps", storms, ramps)
	}
}

// TestOpenLoopShrink pins the arrival shrink steps: a failing open-loop
// case must minimize without losing its violation, and the shrunken
// arrival spec must still validate (no half-cleared process fields).
func TestOpenLoopShrink(t *testing.T) {
	cs := gen.Case{Spec: experiments.Spec{
		Benchmark: "synthetic",
		Shape: &workloads.Shape{
			Stages: 3, Messages: 120, Lines: 2,
			Arrival: &traffic.Spec{
				Process: traffic.Pareto, Alpha: 1.5, Seed: 99, MeanGap: 40,
				Users: 3, StormEvery: 600, StormBurst: 4,
				RampPeriod: 2000, RampPeak: 3,
			},
		},
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgZeroDelay},
		Fault:      &experiments.FaultSpec{DropStash: 3},
	}}
	rep := CheckCase(cs)
	if !rep.Failed() {
		t.Fatal("injected drop not detected on open-loop case")
	}
	min, runs := Minimize(cs)
	if runs < 2 {
		t.Fatalf("Minimize spent %d runs, expected shrink attempts", runs)
	}
	if !min.Failed() {
		t.Fatalf("minimized case lost the violation: %v", min.Violations)
	}
	if min.Case.Spec.Shape == nil {
		t.Fatal("minimized case lost its shape")
	}
	if err := min.Case.Spec.Validate(); err != nil {
		t.Fatalf("minimized case does not validate: %v", err)
	}
	if a := min.Case.Spec.Shape.Arrival; a != nil {
		// Shrinking must never leave process-specific fields dangling
		// behind a cleared process name.
		if a.Process == "" && (a.Alpha != 0 || a.BurstyGap != 0) {
			t.Fatalf("shrunken arrival spec half-cleared: %+v", a)
		}
	}
	// The original case must be untouched by shrink mutations (cloneCase
	// deep-copies the nested arrival spec).
	if a := cs.Spec.Shape.Arrival; a.StormBurst != 4 || a.Users != 3 {
		t.Fatalf("shrink aliased the original arrival spec: %+v", a)
	}
}
