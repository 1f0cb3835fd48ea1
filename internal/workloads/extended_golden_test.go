package workloads

import (
	"testing"

	"spamer"
)

// Golden dispatch traces of the extended collectives at scale 1: each
// under the four algorithms, plus one EvictEvery run per collective,
// rotating the algorithm. The hashes, ticks and message counts were
// recorded with every rank running as a blocking coroutine process; any
// implementation of the collectives must dispatch the same (tick, seq)
// stream, on fresh storage and on storage other runs released.
func TestGoldenExtendedTraces(t *testing.T) {
	cases := []struct {
		bench  string
		alg    string
		evict  uint64
		hash   uint64
		ticks  uint64
		pushed uint64
		popped uint64
	}{
		{"allreduce", "vl", 0, 0x31de56af7e96499c, 18644, 1920, 1920},
		{"allreduce", "0delay", 0, 0x627677ca3ba9f5ca, 17773, 1920, 1920},
		{"allreduce", "adapt", 0, 0xd73ec09af6c2c482, 17866, 1920, 1920},
		{"allreduce", "tuned", 0, 0x627677ca3ba9f5ca, 17773, 1920, 1920},
		{"allreduce", "vl", 500, 0x7b30bd54b05b2f88, 19000, 1920, 1920},
		{"alltoall", "vl", 0, 0x1b88421b347eb7ec, 8815, 1500, 1500},
		{"alltoall", "0delay", 0, 0xcdb115747dfc29bc, 7260, 1500, 1500},
		{"alltoall", "adapt", 0, 0x552d28b38d78ad52, 7260, 1500, 1500},
		{"alltoall", "tuned", 0, 0xcdb115747dfc29bc, 7260, 1500, 1500},
		{"alltoall", "0delay", 500, 0x24fe10de27ae22c, 7500, 1500, 1500},
		{"reduce", "vl", 0, 0xb71c5c97833a361f, 17254, 700, 700},
		{"reduce", "0delay", 0, 0x896d857452397d91, 11052, 700, 700},
		{"reduce", "adapt", 0, 0x83dc5ac1159ca9c0, 11084, 700, 700},
		{"reduce", "tuned", 0, 0x8461a30ad9bc8f52, 11052, 700, 700},
		{"reduce", "adapt", 500, 0xc78f05928dede52a, 11500, 700, 700},
	}
	for _, tc := range cases {
		name := tc.bench + "/" + tc.alg
		if tc.evict > 0 {
			name += "/evict"
		}
		t.Run(name, func(t *testing.T) {
			w, ok := ExtendedByName(tc.bench)
			if !ok {
				t.Fatalf("no extended workload %q", tc.bench)
			}
			for _, storage := range storages {
				prepareStorage(t, storage)
				sys := spamer.NewSystem(spamer.Config{Algorithm: tc.alg, EvictEvery: tc.evict})
				sys.EnableDispatchTrace()
				w.Build(sys, 1)
				res := sys.Run()
				h := sys.DispatchTraceHash()
				if h != tc.hash || res.Ticks != tc.ticks || res.Pushed != tc.pushed || res.Popped != tc.popped {
					t.Errorf("%s storage: got hash %#x ticks %d pushed %d popped %d, want %#x %d %d %d",
						storage, h, res.Ticks, res.Pushed, res.Popped, tc.hash, tc.ticks, tc.pushed, tc.popped)
				}
			}
		})
	}
}
