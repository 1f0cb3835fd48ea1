package dag

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spamer"
	"spamer/internal/config"
)

// FuzzDAGSpec hardens the DAG DSL against arbitrary JSON. Any input
// must either fail Validate with an error or yield a spec whose
// canonical form validates and canonicalizes idempotently; small
// valid graphs additionally run end to end
// under the VL baseline and must conserve every message. Seeds include
// the three checked-in reference scenarios (scenarios/*.json, replay
// traces resolved), so mutations start from real topologies.
func FuzzDAGSpec(f *testing.F) {
	for _, file := range []string{"telemetry.json", "rpc.json", "shuffle.json"} {
		f.Add(scenarioDAG(f, file))
	}
	f.Add([]byte(`{"stages":[{"name":"a","replicas":1,"messages":3}]}`))
	f.Add([]byte(`{"stages":[{"name":"a","replicas":2,"replay":[{"at":5,"size":8}],"work_per_byte":1},` +
		`{"name":"b","replicas":3}],"edges":[{"from":"a","to":"b","policy":"shard","window":2}]}`))
	f.Add([]byte(`{"stages":[{"name":"a","replicas":0}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		c := s.Canonical()
		if err := c.Validate(); err != nil {
			t.Fatalf("canonical form fails validation: %v", err)
		}
		again := c.Canonical()
		ja, _ := json.Marshal(c)
		jb, _ := json.Marshal(again)
		if string(ja) != string(jb) {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s", ja, jb)
		}
		if !runnable(&s) {
			return
		}
		sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgBaseline})
		s.Build(sys, 1)
		res := sys.Run()
		if want := uint64(s.TotalMessages(1)); res.Pushed != want || res.Popped != want {
			t.Fatalf("conservation: pushed/popped = %d/%d, want %d", res.Pushed, res.Popped, want)
		}
	})
}

// runnable bounds the specs the fuzzer executes end to end: small
// graphs with tame work and timestamp magnitudes, so each exec stays
// in the low milliseconds and the simulated horizon stays far from the
// kernel deadline.
func runnable(s *Spec) bool {
	total := s.TotalMessages(1)
	if total == 0 || total > 400 || s.Threads() > 24 {
		return false
	}
	// The default routing device reserves one prodBuf slot per queue;
	// exceeding its table size is an invalid configuration, not a bug.
	if s.Queues() > config.SRDEntries {
		return false
	}
	for i := range s.Stages {
		st := &s.Stages[i]
		if w := st.Work; w != nil && (w.Mean > 1<<16 || w.Max > 1<<16) {
			return false
		}
		if st.WorkPerByte > 1<<8 {
			return false
		}
		if a := st.Arrival; a != nil && (a.MeanGap > 1<<16 || a.Users > 64 || a.StormBurst > 256) {
			return false
		}
		for _, ev := range st.Replay {
			if ev.At > 1<<32 || ev.Work > 1<<16 || ev.Size > 1<<16 {
				return false
			}
		}
	}
	return true
}

// scenarioDAG extracts the resolved DAG body of one checked-in
// reference scenario spec.
func scenarioDAG(f *testing.F, file string) []byte {
	f.Helper()
	dir := filepath.Join("..", "..", "..", "scenarios")
	data, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		f.Fatal(err)
	}
	var spec struct {
		Shape struct {
			DAG json.RawMessage `json:"dag"`
		} `json:"shape"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		f.Fatal(err)
	}
	var s Spec
	if err := json.Unmarshal(spec.Shape.DAG, &s); err != nil {
		f.Fatal(err)
	}
	if err := s.LoadTraces(dir); err != nil {
		f.Fatal(err)
	}
	out, err := json.Marshal(&s)
	if err != nil {
		f.Fatal(err)
	}
	return out
}
