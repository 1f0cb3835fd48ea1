package dag

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spamer"
	"spamer/internal/traffic"
)

// diamond is a valid four-stage reference DAG used across tests: one
// source broadcasting into two parallel branches that re-merge at a
// sink (the classic deadlock-prone fan-out/fan-in shape).
func diamond() *Spec {
	return &Spec{
		Name: "diamond",
		Stages: []Stage{
			{Name: "src", Replicas: 1, Messages: 24, Work: &Dist{Mean: 8}},
			{Name: "left", Replicas: 1, Work: &Dist{Mean: 12}},
			{Name: "right", Replicas: 1, Work: &Dist{Mean: 20}},
			{Name: "sink", Replicas: 1},
		},
		Edges: []Edge{
			{From: "src", To: "left"},
			{From: "src", To: "right"},
			{From: "left", To: "sink"},
			{From: "right", To: "sink"},
		},
	}
}

// TestValidateErrors is the table-driven error-path battery over the
// DSL's Validate rules (mirroring experiments.Spec.Validate coverage):
// every malformed spec must be rejected with a diagnostic mentioning
// the offending construct.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec) // applied to a valid diamond
		want string      // substring of the error
	}{
		{"no stages", func(s *Spec) { s.Stages = nil }, "at least one stage"},
		{"unnamed stage", func(s *Spec) { s.Stages[1].Name = "" }, "has no name"},
		{"duplicate stage", func(s *Spec) { s.Stages[2].Name = "left" }, "duplicate stage"},
		{"zero replicas", func(s *Spec) { s.Stages[1].Replicas = 0 }, "replicas >= 1"},
		{"negative replicas", func(s *Spec) { s.Stages[1].Replicas = -3 }, "replicas >= 1"},
		{"replica cap", func(s *Spec) {
			s.Stages[0].Replicas = MaxReplicas + 1
			s.Stages[1].Replicas = MaxReplicas + 1
			s.Edges = s.Edges[:1]
			s.Edges[0].Policy = PolicyPair
		}, "exceeds cap"},
		{"negative messages", func(s *Spec) { s.Stages[0].Messages = -1 }, "negative messages"},
		{"dangling edge from", func(s *Spec) { s.Edges[0].From = "ghost" }, `unknown stage "ghost"`},
		{"dangling edge to", func(s *Spec) { s.Edges[3].To = "ghost" }, `unknown stage "ghost"`},
		{"self loop", func(s *Spec) { s.Edges[0].To = "src" }, "self-loop"},
		{"duplicate edge", func(s *Spec) { s.Edges[1].To = "left" }, "duplicate edge"},
		{"cycle", func(s *Spec) {
			s.Edges = append(s.Edges, Edge{From: "sink", To: "left"})
		}, "cycle through stage"},
		{"negative window", func(s *Spec) { s.Edges[0].Window = -1 }, "negative parameter"},
		{"lines cap", func(s *Spec) { s.Edges[0].Lines = MaxLines + 1 }, "exceed cap"},
		{"window cap", func(s *Spec) { s.Edges[0].Window = MaxWindow + 1 }, "exceed cap"},
		{"unknown policy", func(s *Spec) { s.Edges[0].Policy = "mesh" }, `unknown policy "mesh"`},
		{"pair replica mismatch", func(s *Spec) {
			s.Stages[1].Replicas = 2
			s.Edges[0].Policy = PolicyPair
		}, "needs equal replicas"},
		{"source without driver", func(s *Spec) { s.Stages[0].Messages = 0 }, "needs messages or replay"},
		{"messages and replay", func(s *Spec) {
			s.Stages[0].Replay = []TraceEvent{{At: 1}}
		}, "both messages and replay"},
		{"arrival and replay", func(s *Spec) {
			s.Stages[0].Messages = 0
			s.Stages[0].Replay = []TraceEvent{{At: 1}}
			s.Stages[0].Arrival = &traffic.Spec{MeanGap: 50}
		}, "both arrival and replay"},
		{"interior messages", func(s *Spec) { s.Stages[3].Messages = 5 }, "must not set messages"},
		{"interior arrival", func(s *Spec) {
			s.Stages[3].Arrival = &traffic.Spec{MeanGap: 50}
		}, "must not set an arrival"},
		{"interior replay", func(s *Spec) {
			s.Stages[3].Replay = []TraceEvent{{At: 1}}
		}, "must not set replay"},
		{"unsorted replay", func(s *Spec) {
			s.Stages[0].Messages = 0
			s.Stages[0].Replay = []TraceEvent{{At: 9}, {At: 3}}
		}, "non-decreasing"},
		{"unresolved replay file", func(s *Spec) {
			s.Stages[0].ReplayFile = "trace.json"
		}, "unresolved replay file"},
		{"bad dist kind", func(s *Spec) {
			s.Stages[1].Work = &Dist{Kind: "zipf", Mean: 4}
		}, `unknown distribution kind "zipf"`},
		{"uniform min>max", func(s *Spec) {
			s.Stages[1].Work = &Dist{Kind: DistUniform, Min: 9, Max: 3}
		}, "min <= max"},
		{"uniform with mean", func(s *Spec) {
			s.Stages[1].Work = &Dist{Kind: DistUniform, Mean: 4, Max: 9}
		}, "uses min/max"},
		{"exp without mean", func(s *Spec) {
			s.Stages[1].Work = &Dist{Kind: DistExp}
		}, "needs mean > 0"},
		{"exp with bounds", func(s *Spec) {
			s.Stages[1].Work = &Dist{Kind: DistExp, Mean: 4, Max: 9}
		}, "uses mean only"},
		{"const with bounds", func(s *Spec) {
			s.Stages[1].Work = &Dist{Mean: 4, Min: 1, Max: 9}
		}, "uses mean only"},
		{"work cap", func(s *Spec) {
			s.Stages[1].Work = &Dist{Mean: MaxWork + 1}
		}, "exceeds cap"},
		{"bad arrival", func(s *Spec) {
			s.Stages[0].Arrival = &traffic.Spec{MeanGap: 0}
		}, ""},
		{"dynamic with second input", func(s *Spec) {
			s.Stages[3].Replicas = 2
			s.Edges[2].Policy = PolicyShared
			s.Edges[3].Policy = PolicyPair
			s.Stages[2].Replicas = 2
			s.Edges[1].Policy = PolicyShard
		}, "must be its only input"},
		{"dynamic with output", func(s *Spec) {
			s.Stages[1].Replicas = 4
			s.Edges[0].Policy = PolicyShared
			s.Edges[2].Policy = PolicyShard
		}, "must be a sink"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := diamond()
			if err := s.Validate(); err != nil {
				t.Fatalf("diamond baseline invalid: %v", err)
			}
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("expected validation error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShardCount checks the shard routing arithmetic: counts must
// partition each producer's items exactly and stay balanced.
func TestShardCount(t *testing.T) {
	for _, k := range []int{0, 1, 5, 16, 17} {
		for _, n := range []int{1, 2, 3, 4, 7} {
			for p := 0; p < 5; p++ {
				sum, max, min := 0, 0, int(^uint(0)>>1)
				for c := 0; c < n; c++ {
					got := shardCount(k, p, c, n)
					want := 0
					for j := 0; j < k; j++ {
						if (j+p)%n == c {
							want++
						}
					}
					if got != want {
						t.Fatalf("shardCount(%d,%d,%d,%d) = %d, want %d", k, p, c, n, got, want)
					}
					sum += got
					if got > max {
						max = got
					}
					if got < min {
						min = got
					}
				}
				if sum != k {
					t.Fatalf("shard counts don't partition: k=%d n=%d p=%d sum=%d", k, n, p, sum)
				}
				if k >= n && max-min > 1 {
					t.Fatalf("shard counts unbalanced: k=%d n=%d p=%d spread=%d", k, n, p, max-min)
				}
			}
		}
	}
}

// TestCountPropagation pins static count propagation through a mixed
// pair/shard/shared topology at scale 2.
func TestCountPropagation(t *testing.T) {
	s := &Spec{
		Name: "mix",
		Stages: []Stage{
			{Name: "gen", Replicas: 2, Messages: 10},
			{Name: "work", Replicas: 3},
			{Name: "merge", Replicas: 1},
		},
		Edges: []Edge{
			{From: "gen", To: "work", Policy: PolicyShard},
			{From: "work", To: "merge", Policy: PolicyShard},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := s.newPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 producers x 20 items shard onto 3 consumers.
	wantWork := []int{0, 0, 0}
	for pr := 0; pr < 2; pr++ {
		for j := 0; j < 20; j++ {
			wantWork[(j+pr)%3]++
		}
	}
	for r, want := range wantWork {
		if p.counts[1][r] != want {
			t.Errorf("work replica %d count = %d, want %d", r, p.counts[1][r], want)
		}
	}
	if got := p.counts[2][0]; got != 40 {
		t.Errorf("merge count = %d, want 40", got)
	}
	if got := s.TotalMessages(2); got != 80 {
		t.Errorf("TotalMessages(2) = %d, want 80", got)
	}
}

// runSpec builds and runs sp under cfg, returning the trace hash and
// result.
func runSpec(t *testing.T, sp *Spec, cfg spamer.Config, scale int) (uint64, spamer.Result) {
	t.Helper()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := spamer.NewSystem(cfg)
	sys.EnableDispatchTrace()
	sp.Build(sys, scale)
	res := sys.Run()
	return sys.DispatchTraceHash(), res
}

// TestRunDiamond drives the diamond end to end under VL and SPAMeR:
// message conservation, exact queue totals, and a repeat run that
// dispatches the identical trace.
func TestRunDiamond(t *testing.T) {
	for _, alg := range []string{spamer.AlgBaseline, spamer.AlgTuned} {
		sp := diamond()
		h1, res := runSpec(t, sp, spamer.Config{Algorithm: alg}, 2)
		want := uint64(sp.TotalMessages(2))
		if res.Pushed != want || res.Popped != want {
			t.Fatalf("%s: pushed/popped = %d/%d, want %d", alg, res.Pushed, res.Popped, want)
		}
		if h2, _ := runSpec(t, sp, spamer.Config{Algorithm: alg}, 2); h1 != h2 {
			t.Fatalf("%s: repeat run diverged: %#x vs %#x", alg, h1, h2)
		}
	}
}

// TestRunDynamicSink covers the WorkCounter drain: an M:N shared edge
// whose consumers split a dynamic share.
func TestRunDynamicSink(t *testing.T) {
	sp := &Spec{
		Name: "fanin",
		Stages: []Stage{
			{Name: "gen", Replicas: 3, Messages: 15, Work: &Dist{Kind: DistUniform, Min: 1, Max: 30}},
			{Name: "sink", Replicas: 2, Work: &Dist{Mean: 9}},
		},
		Edges: []Edge{{From: "gen", To: "sink"}},
	}
	h1, res := runSpec(t, sp, spamer.Config{Algorithm: spamer.AlgTuned}, 1)
	if res.Pushed != 45 || res.Popped != 45 {
		t.Fatalf("pushed/popped = %d/%d, want 45", res.Pushed, res.Popped)
	}
	h2, _ := runSpec(t, sp, spamer.Config{Algorithm: spamer.AlgTuned}, 1)
	if h1 != h2 {
		t.Fatalf("repeat run diverged: %#x vs %#x", h1, h2)
	}
}

// TestRunReplay drives a replayed source: counts come from the trace
// (scale must not multiply them) and emissions respect timestamps.
func TestRunReplay(t *testing.T) {
	events := make([]TraceEvent, 30)
	for i := range events {
		events[i] = TraceEvent{At: uint64(i * 100), Work: 5, Size: uint64(i % 7)}
	}
	sp := &Spec{
		Name: "replayed",
		Stages: []Stage{
			{Name: "intake", Replicas: 2, Replay: events, WorkPerByte: 3},
			{Name: "out", Replicas: 2},
		},
		Edges: []Edge{{From: "intake", To: "out", Policy: PolicyPair}},
	}
	_, res := runSpec(t, sp, spamer.Config{Algorithm: spamer.AlgTuned}, 4)
	if res.Pushed != 30 || res.Popped != 30 {
		t.Fatalf("replay pushed/popped = %d/%d, want 30 (scale must not multiply traces)",
			res.Pushed, res.Popped)
	}
	// The last event fires at tick 2900; the run can't finish earlier.
	if res.Ticks < 2900 {
		t.Fatalf("replay finished at tick %d, before the last recorded timestamp", res.Ticks)
	}
}

// TestRunArrival drives an open-loop DAG source through the traffic
// engine and checks determinism.
func TestRunArrival(t *testing.T) {
	sp := &Spec{
		Name: "openloop",
		Stages: []Stage{
			{Name: "in", Replicas: 2, Messages: 20,
				Arrival: &traffic.Spec{Process: traffic.Poisson, MeanGap: 120, Seed: 7}},
			{Name: "out", Replicas: 2},
		},
		Edges: []Edge{{From: "in", To: "out", Policy: PolicyPair}},
	}
	h1, res := runSpec(t, sp, spamer.Config{Algorithm: spamer.AlgTuned}, 1)
	if res.Pushed != 40 || res.Popped != 40 {
		t.Fatalf("pushed/popped = %d/%d, want 40", res.Pushed, res.Popped)
	}
	h2, _ := runSpec(t, sp, spamer.Config{Algorithm: spamer.AlgTuned}, 1)
	if h1 != h2 {
		t.Fatalf("open-loop run not deterministic: %#x vs %#x", h1, h2)
	}
}

// TestCanonical pins the default-collapsing rules and JSON round-trip
// stability of canonical specs.
func TestCanonical(t *testing.T) {
	s := diamond()
	s.Seed = 99 // dead: no uniform/exp dists
	s.Edges[0].Lines = 2
	s.Edges[1].Window = 4 // vlq.DefaultWindow
	s.Edges[2].Policy = PolicyShared
	s.Stages[3].Work = &Dist{Kind: DistConst}
	c := s.Canonical()
	if c.Seed != 0 {
		t.Error("dead seed not collapsed")
	}
	if c.Edges[0].Lines != 0 || c.Edges[1].Window != 0 {
		t.Error("default lines/window not collapsed")
	}
	for i, e := range c.Edges {
		if e.Policy != PolicyPair {
			t.Errorf("edge %d: 1:1 policy = %q, want pair", i, e.Policy)
		}
	}
	if c.Stages[3].Work != nil {
		t.Error("no-op work dist not collapsed")
	}
	if c.Stages[0].Work == nil || c.Stages[0].Work.Mean != 8 {
		t.Error("real work dist lost")
	}
	// Canonical must be idempotent and JSON-stable.
	c2 := c.Canonical()
	j1, _ := json.Marshal(c)
	j2, _ := json.Marshal(c2)
	if string(j1) != string(j2) {
		t.Errorf("canonical not idempotent:\n%s\n%s", j1, j2)
	}
	// Live seed survives.
	s2 := diamond()
	s2.Seed = 99
	s2.Stages[1].Work = &Dist{Kind: DistExp, Mean: 12}
	if got := s2.Canonical().Seed; got != 99 {
		t.Errorf("live seed collapsed to %d", got)
	}
}

// TestLoadTraces resolves a replay file relative to a directory and
// checks the canonical form drops the file reference.
func TestLoadTraces(t *testing.T) {
	dir := t.TempDir()
	events := []TraceEvent{{At: 10, Work: 3}, {At: 25, Size: 4}}
	data, _ := json.Marshal(events)
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sp := &Spec{
		Name: "traced",
		Stages: []Stage{
			{Name: "in", Replicas: 1, ReplayFile: "trace.json"},
			{Name: "out", Replicas: 1},
		},
		Edges: []Edge{{From: "in", To: "out"}},
	}
	if err := sp.Validate(); err == nil {
		t.Fatal("unresolved replay file must not validate")
	}
	if err := sp.LoadTraces(dir); err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Stages[0].Replay) != 2 {
		t.Fatalf("loaded %d events, want 2", len(sp.Stages[0].Replay))
	}
	if c := sp.Canonical(); c.Stages[0].ReplayFile != "" {
		t.Error("canonical kept the resolved replay file reference")
	}
	if err := sp.LoadTraces(dir); err != nil {
		t.Fatalf("reload of resolved spec: %v", err)
	}
	sp.Stages[0].Replay = nil
	sp.Stages[0].ReplayFile = "missing.json"
	if err := sp.LoadTraces(dir); err == nil {
		t.Fatal("missing trace file must error")
	}
}
