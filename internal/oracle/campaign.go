package oracle

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/oracle/gen"
	"spamer/internal/workloads/dag"
)

// CampaignOptions parameterizes a randomized verification campaign.
type CampaignOptions struct {
	// Seed is the campaign's base seed; case i derives its own seed from
	// it, so any failing case replays independently.
	Seed uint64
	// N is the number of random cases to check.
	N int
	// ReproDir is where minimized failing cases are written as JSON
	// ("" = current directory).
	ReproDir string
	// Workers, when > 0, additionally runs every case through a fabric
	// worker pool of that size and requires the distributed outcomes to
	// be byte-identical to a local run (the distributed-vs-local
	// differential; docs/FABRIC.md).
	Workers int
	// Log, when non-nil, receives one progress line per failure and a
	// periodic heartbeat.
	Log io.Writer
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Cases    int           `json:"cases"`
	Runs     int           `json:"runs"`
	Failures []CaseFailure `json:"failures,omitempty"`
}

// CaseFailure is one failing case: the minimized reproducer, the
// original case it shrank from, and the violations the minimized case
// still triggers.
type CaseFailure struct {
	Case       gen.Case    `json:"case"`
	Original   gen.Case    `json:"original_case"`
	Violations []Violation `json:"violations"`
	ReproPath  string      `json:"repro_path,omitempty"`
}

// caseSeed spreads the campaign seed across case indices.
func caseSeed(base uint64, i int) uint64 {
	return (base + uint64(i)) * 0x9e3779b97f4a7c15
}

// Campaign draws N random cases and checks each under the full
// invariant battery (CheckCase). Every failing case is minimized and
// written to ReproDir; the campaign continues past failures so one bug
// does not mask another.
func Campaign(opts CampaignOptions) (CampaignResult, error) {
	if opts.N <= 0 {
		opts.N = 50
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	var dc *DistributedChecker
	if opts.Workers > 0 {
		var err error
		if dc, err = NewDistributedChecker(opts.Workers); err != nil {
			return CampaignResult{}, err
		}
		defer dc.Close()
		logf("oracle: distributed differential on, %d workers", dc.Workers())
	}
	var res CampaignResult
	for i := 0; i < opts.N; i++ {
		seed := caseSeed(opts.Seed, i)
		cs := gen.New(seed).Case()
		cs.Seed = seed
		rep := CheckCase(cs)
		res.Cases++
		res.Runs += rep.Runs
		if dc != nil {
			vs, runs := dc.Check(cs)
			res.Runs += runs
			if len(vs) > 0 {
				// A divergence is a fabric bug, not a simulator bug:
				// Minimize replays through CheckCase and would never
				// reproduce it, so record the case as-is.
				logf("oracle: case %d (seed %#x) DISTRIBUTED DIVERGENCE: %s", i, seed, vs[0])
				fail := CaseFailure{Case: cs, Original: cs, Violations: vs}
				path, err := writeRepro(opts.ReproDir, seed, fail)
				if err != nil {
					return res, fmt.Errorf("oracle: writing repro: %w", err)
				}
				fail.ReproPath = path
				res.Failures = append(res.Failures, fail)
			}
		}
		if i > 0 && i%25 == 0 {
			logf("oracle: %d/%d cases, %d runs, %d failures", i, opts.N, res.Runs, len(res.Failures))
		}
		if !rep.Failed() {
			continue
		}
		logf("oracle: case %d (seed %#x) FAILED: %s", i, seed, rep.Violations[0])
		min, runs := Minimize(cs)
		res.Runs += runs
		fail := CaseFailure{Case: min.Case, Original: cs, Violations: min.Violations}
		path, err := writeRepro(opts.ReproDir, seed, fail)
		if err != nil {
			return res, fmt.Errorf("oracle: writing repro: %w", err)
		}
		fail.ReproPath = path
		logf("oracle: minimized repro written to %s", path)
		res.Failures = append(res.Failures, fail)
	}
	return res, nil
}

// writeRepro persists a failure as an indented JSON file that
// `spamer verify -repro` can replay.
func writeRepro(dir string, seed uint64, fail CaseFailure) (string, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle-repro-%016x.json", seed))
	data, err := json.MarshalIndent(fail, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReproFile loads a failure file previously written by a campaign.
func ReadReproFile(path string) (CaseFailure, error) {
	var fail CaseFailure
	data, err := os.ReadFile(path)
	if err != nil {
		return fail, err
	}
	if err := json.Unmarshal(data, &fail); err != nil {
		return fail, fmt.Errorf("oracle: repro file %s: %w", path, err)
	}
	return fail, nil
}

// minimizeBudget bounds the candidate CheckCase runs one minimization
// may spend.
const minimizeBudget = 48

// Minimize greedily shrinks a failing case while it still violates any
// invariant, returning the smallest failing report found and the number
// of candidate runs spent. The shrink moves work on the case's data —
// halving message counts, dropping stages/endpoints/algorithms, and
// clearing pressure knobs — so the repro a campaign emits is as close
// to minimal as a bounded greedy pass gets.
func Minimize(cs gen.Case) (CaseReport, int) {
	best := CheckCase(cs)
	runs := 1
	if !best.Failed() {
		return best, runs // flaky environment failure; nothing to shrink
	}
	for runs < minimizeBudget {
		improved := false
		for _, cand := range shrinkSteps(best.Case) {
			if runs >= minimizeBudget {
				break
			}
			rep := CheckCase(cand)
			runs++
			if rep.Failed() {
				best = rep
				improved = true
				break // restart shrinking from the smaller case
			}
		}
		if !improved {
			break
		}
	}
	return best, runs
}

// shrinkSteps proposes strictly-smaller variants of a case, most
// aggressive first.
func shrinkSteps(cs gen.Case) []gen.Case {
	var out []gen.Case
	add := func(mut func(*gen.Case)) {
		c := cloneCase(cs)
		mut(&c)
		out = append(out, c)
	}
	if sh := cs.Spec.Shape; sh != nil && sh.DAG != nil {
		out = append(out, dagShrinkSteps(cs)...)
	} else if sh != nil {
		if sh.Messages > 1 {
			add(func(c *gen.Case) { c.Spec.Shape.Messages /= 2 })
			add(func(c *gen.Case) { c.Spec.Shape.Messages = 1 })
		}
		if sh.Stages > 2 {
			add(func(c *gen.Case) { c.Spec.Shape.Stages = 2 })
		}
		if sh.Producers > 1 {
			add(func(c *gen.Case) { c.Spec.Shape.Producers = 1 })
		}
		if sh.Consumers > 1 {
			add(func(c *gen.Case) { c.Spec.Shape.Consumers = 1 })
		}
		if sh.Burst > 0 {
			add(func(c *gen.Case) { c.Spec.Shape.Burst, c.Spec.Shape.BurstGap = 0, 0 })
		}
		if sh.Arrival != nil {
			// Peel the overlays first (a storm or ramp may be the
			// trigger), then the whole arrival process.
			if sh.Arrival.StormBurst > 0 {
				add(func(c *gen.Case) { c.Spec.Shape.Arrival.StormEvery, c.Spec.Shape.Arrival.StormBurst = 0, 0 })
			}
			if sh.Arrival.RampPeriod > 0 {
				add(func(c *gen.Case) { c.Spec.Shape.Arrival.RampPeriod, c.Spec.Shape.Arrival.RampPeak = 0, 0 })
			}
			if sh.Arrival.Users > 1 {
				add(func(c *gen.Case) { c.Spec.Shape.Arrival.Users = 1 })
			}
			if sh.Arrival.Process != "" && sh.Arrival.Process != "poisson" {
				add(func(c *gen.Case) {
					c.Spec.Shape.Arrival.Process = ""
					c.Spec.Shape.Arrival.BurstyGap, c.Spec.Shape.Arrival.MeanDwell = 0, 0
					c.Spec.Shape.Arrival.Alpha, c.Spec.Shape.Arrival.MaxGap = 0, 0
				})
			}
			add(func(c *gen.Case) { c.Spec.Shape.Arrival = nil })
		}
		if sh.ProdWork > 0 || sh.ConsWork > 0 {
			add(func(c *gen.Case) { c.Spec.Shape.ProdWork, c.Spec.Shape.ConsWork = 0, 0 })
		}
		if sh.Lines > 1 {
			add(func(c *gen.Case) { c.Spec.Shape.Lines = 1 })
		}
		if sh.Window > 0 {
			add(func(c *gen.Case) { c.Spec.Shape.Window = 0 })
		}
	}
	if len(cs.Spec.Algorithms) > 2 {
		for i := 1; i < len(cs.Spec.Algorithms); i++ {
			i := i
			add(func(c *gen.Case) {
				c.Spec.Algorithms = append(c.Spec.Algorithms[:i:i], c.Spec.Algorithms[i+1:]...)
			})
		}
	} else if len(cs.Spec.Algorithms) == 2 && cs.Spec.Algorithms[0] == spamer.AlgBaseline {
		add(func(c *gen.Case) { c.Spec.Algorithms = c.Spec.Algorithms[:1] })
	}
	if cs.EvictEvery > 0 {
		add(func(c *gen.Case) { c.EvictEvery = 0 })
	}
	if cs.Spec.SRDEntries > 0 {
		// Resetting to the default table size is only a valid shrink
		// when the workload's queue footprint still fits (DAGs can
		// legitimately need enlarged tables).
		if sh := cs.Spec.Shape; sh == nil || sh.DAG == nil || sh.DAG.Queues() <= config.SRDEntries {
			add(func(c *gen.Case) { c.Spec.SRDEntries = 0 })
		}
	}
	if cs.Spec.HopLatency > 0 {
		add(func(c *gen.Case) { c.Spec.HopLatency = 0 })
	}
	if cs.Spec.Channels > 0 {
		add(func(c *gen.Case) { c.Spec.Channels = 0 })
	}
	if cs.Spec.Tuned != nil {
		add(func(c *gen.Case) { c.Spec.Tuned = nil })
	}
	if cs.Spec.NoInline {
		add(func(c *gen.Case) { c.Spec.NoInline = false })
	}
	return out
}

// dagShrinkSteps proposes strictly-smaller variants of a workload-DAG
// case: peel sink stages, drop edges, collapse replica pools, halve
// source counts, simplify drives, and clear compute/tuning knobs.
// Every candidate is pre-filtered through Validate — CheckCase reports
// an invalid case as an "invalid-case" violation, which the greedy
// minimizer would otherwise mistake for a smaller still-failing repro.
func dagShrinkSteps(cs gen.Case) []gen.Case {
	var out []gen.Case
	add := func(mut func(*dag.Spec)) {
		c := cloneCase(cs)
		mut(c.Spec.Shape.DAG)
		if c.Spec.Shape.DAG.Validate() != nil {
			return
		}
		out = append(out, c)
	}
	d := cs.Spec.Shape.DAG

	// Peel sink stages (with their in-edges); dropping an interior stage
	// would orphan its consumers, which the Validate filter rejects.
	hasOut := make(map[string]bool, len(d.Stages))
	for _, e := range d.Edges {
		hasOut[e.From] = true
	}
	if len(d.Stages) > 1 {
		for i := range d.Stages {
			if hasOut[d.Stages[i].Name] {
				continue
			}
			i, name := i, d.Stages[i].Name
			add(func(s *dag.Spec) {
				s.Stages = append(s.Stages[:i:i], s.Stages[i+1:]...)
				kept := s.Edges[:0]
				for _, e := range s.Edges {
					if e.To != name {
						kept = append(kept, e)
					}
				}
				s.Edges = kept
			})
		}
	}
	for i := range d.Edges {
		i := i
		add(func(s *dag.Spec) { s.Edges = append(s.Edges[:i:i], s.Edges[i+1:]...) })
	}
	for _, st := range d.Stages {
		if st.Replicas > 1 {
			add(func(s *dag.Spec) {
				for j := range s.Stages {
					s.Stages[j].Replicas = 1
				}
			})
			break
		}
	}
	for _, st := range d.Stages {
		if st.Messages > 1 {
			add(func(s *dag.Spec) {
				for j := range s.Stages {
					if s.Stages[j].Messages > 1 {
						s.Stages[j].Messages /= 2
					}
				}
			})
			add(func(s *dag.Spec) {
				for j := range s.Stages {
					if s.Stages[j].Messages > 1 {
						s.Stages[j].Messages = 1
					}
				}
			})
			break
		}
	}
	for i, st := range d.Stages {
		if len(st.Replay) > 1 {
			i := i
			add(func(s *dag.Spec) {
				st := &s.Stages[i]
				st.Replay = st.Replay[:len(st.Replay)/2]
			})
		}
		if len(st.Replay) > 0 {
			// Replace the recorded trace with a plain closed-loop count.
			i, n := i, len(st.Replay)
			add(func(s *dag.Spec) {
				st := &s.Stages[i]
				st.Replay, st.ReplayFile, st.WorkPerByte = nil, "", 0
				st.Messages = n
			})
		}
		if st.Arrival != nil {
			i := i
			add(func(s *dag.Spec) { s.Stages[i].Arrival = nil })
		}
	}
	for _, st := range d.Stages {
		if st.Work != nil || st.WorkPerByte > 0 {
			add(func(s *dag.Spec) {
				for j := range s.Stages {
					s.Stages[j].Work, s.Stages[j].WorkPerByte = nil, 0
				}
			})
			break
		}
	}
	for _, e := range d.Edges {
		if e.Lines > 0 || e.Window > 0 {
			add(func(s *dag.Spec) {
				for j := range s.Edges {
					s.Edges[j].Lines, s.Edges[j].Window = 0, 0
				}
			})
			break
		}
	}
	return out
}

// cloneCase deep-copies the case so shrink mutations never alias.
func cloneCase(cs gen.Case) gen.Case {
	c := cs
	if cs.Spec.Shape != nil {
		sh := *cs.Spec.Shape
		if sh.Arrival != nil {
			a := *sh.Arrival
			sh.Arrival = &a
		}
		if sh.DAG != nil {
			sh.DAG = sh.DAG.Clone()
		}
		c.Spec.Shape = &sh
	}
	if cs.Spec.Tuned != nil {
		t := *cs.Spec.Tuned
		c.Spec.Tuned = &t
	}
	if cs.Spec.Fault != nil {
		f := *cs.Spec.Fault
		c.Spec.Fault = &f
	}
	c.Spec.Algorithms = append([]string(nil), cs.Spec.Algorithms...)
	return c
}
