package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"spamer"
)

// Golden dispatch-trace hashes for the three checked-in DAG reference
// scenarios (scenarios/*.json): the telemetry-aggregation pipeline
// (open-loop Poisson intake, pair + shard edges), the RPC-microservice
// DAG (recorded-trace replay client, diamond fan-out/fan-in), and the
// MapReduce-style shuffle (4x4 shard exchange). Each is pinned under
// the VL baseline and the tuned SPAMeR algorithm. Any edit to a
// scenario file, the DAG compiler, the trace loader, or the kernel
// that reorders even one event moves a hash and fails here.
var goldenDAGScenarios = []struct {
	file     string
	alg      string
	seqHash  uint64
	seqTicks uint64
	messages uint64
}{
	{"telemetry.json", spamer.AlgBaseline, 0xf555436beeb905e0, 6290, 180},
	{"telemetry.json", spamer.AlgTuned, 0x786253195ca0dfd5, 6507, 180},
	{"rpc.json", spamer.AlgBaseline, 0xf2c9255086e56213, 13311, 256},
	{"rpc.json", spamer.AlgTuned, 0x5634042b59f23b83, 13945, 256},
	{"shuffle.json", spamer.AlgBaseline, 0x3465739a20708806, 2267, 192},
	{"shuffle.json", spamer.AlgTuned, 0xc4a12023856893c2, 1807, 192},
}

// loadScenario reads one checked-in scenario spec and resolves its
// replay traces, exactly as `spamer run` would.
func loadScenario(t testing.TB, file string) Spec {
	t.Helper()
	dir := filepath.Join("..", "..", "scenarios")
	f, err := os.Open(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	specs, err := ReadSpecs(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := ResolveTraceFiles(specs, dir); err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("%s: %d specs, want 1", file, len(specs))
	}
	if err := specs[0].Validate(); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return specs[0]
}

// TestGoldenDAGScenarios pins the dispatch traces of the reference DAG
// scenarios: shard exchanges, diamond merges, open-loop and replayed
// sources.
func TestGoldenDAGScenarios(t *testing.T) {
	for _, tc := range goldenDAGScenarios {
		tc := tc
		t.Run(tc.file+"/"+tc.alg, func(t *testing.T) {
			sp := loadScenario(t, tc.file)
			w := sp.Shape.Workload()
			sys := spamer.NewSystem(sp.SystemConfig(tc.alg))
			sys.EnableDispatchTrace()
			w.Build(sys, 1)
			res := sys.Run()
			if h := sys.DispatchTraceHash(); h != tc.seqHash {
				t.Errorf("sequential trace hash = %#x, golden %#x", h, tc.seqHash)
			}
			if res.Ticks != tc.seqTicks {
				t.Errorf("sequential ticks = %d, golden %d", res.Ticks, tc.seqTicks)
			}
			if res.Pushed != tc.messages || res.Popped != tc.messages {
				t.Errorf("pushed/popped = %d/%d, want %d", res.Pushed, res.Popped, tc.messages)
			}
		})
	}
}

// TestDAGScenarioCacheHash proves DAG scenarios content-address
// stably: the canonical hash is invariant under re-reading the same
// file, covers resolved trace events (two different traces behind one
// filename cannot alias), and distinguishes the three scenarios.
func TestDAGScenarioCacheHash(t *testing.T) {
	seen := map[string]string{}
	for _, file := range []string{"telemetry.json", "rpc.json", "shuffle.json"} {
		a := loadScenario(t, file).Hash()
		b := loadScenario(t, file).Hash()
		if a != b {
			t.Errorf("%s: hash not stable across reads: %s vs %s", file, a, b)
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("%s and %s hash identically", file, prev)
		}
		seen[a] = file
	}
	// Mutating one resolved replay event must move the hash: the cache
	// key covers trace content, not the file reference.
	sp := loadScenario(t, "rpc.json")
	before := sp.Hash()
	sp.Shape.DAG.Stages[0].Replay[0].Work++
	if sp.Hash() == before {
		t.Error("hash ignores resolved replay events")
	}
}
