package workloads

import (
	"testing"

	"spamer"
)

// Golden dispatch traces of the eight Table-2 kernels at scale 1: every
// Figure-8 cell (kernel x algorithm) plus one EvictEvery run per kernel,
// rotating the algorithm. The hashes, ticks and message counts were
// recorded with every kernel thread running as a blocking coroutine
// process; any implementation of the kernels must dispatch the same
// (tick, seq) stream. The eviction runs also pin when each kernel's
// last thread exits: the injector stops once no thread is live, so a
// run's ticks round up to the next eviction period. Each case runs on
// fresh storage and on storage other runs released (prepareStorage).
func TestGoldenTable2Traces(t *testing.T) {
	cases := []struct {
		bench  string
		alg    string
		evict  uint64
		hash   uint64
		ticks  uint64
		pushed uint64
		popped uint64
	}{
		{"bitonic", "vl", 0, 0xec9e5cfa770dc935, 50304, 192, 192},
		{"bitonic", "0delay", 0, 0x9dddfe1456f0990c, 47330, 192, 192},
		{"bitonic", "adapt", 0, 0x1e9f39348d9160ef, 47330, 192, 192},
		{"bitonic", "tuned", 0, 0x9dddfe1456f0990c, 47330, 192, 192},
		{"bitonic", "vl", 500, 0x7a642da201c5eb83, 50500, 192, 192},
		{"sweep", "vl", 0, 0x350b19944e43d78f, 260160, 5760, 5760},
		{"sweep", "0delay", 0, 0x59ef979edd06c206, 237844, 5760, 5760},
		{"sweep", "adapt", 0, 0xa7ae3975794bf42, 238216, 5760, 5760},
		{"sweep", "tuned", 0, 0x59ef979edd06c206, 237844, 5760, 5760},
		{"sweep", "0delay", 500, 0x2a9c5ee2fb0d32dc, 242500, 5760, 5760},
		{"ping-pong", "vl", 0, 0xbae11a46da46659, 244800, 2400, 2400},
		{"ping-pong", "0delay", 0, 0x4026a5b1f6cc1e7a, 244802, 2400, 2400},
		{"ping-pong", "adapt", 0, 0xd04f8989798a2863, 244864, 2400, 2400},
		{"ping-pong", "tuned", 0, 0x4026a5b1f6cc1e7a, 244802, 2400, 2400},
		{"ping-pong", "adapt", 500, 0x150d3213e6f0bec8, 246000, 2400, 2400},
		{"incast", "vl", 0, 0xe4b4310410456682, 220879, 2400, 2400},
		{"incast", "0delay", 0, 0x57d6cf8005f51e07, 146506, 2400, 2400},
		{"incast", "adapt", 0, 0xd883c77b49be8657, 148680, 2400, 2400},
		{"incast", "tuned", 0, 0x934118c09a1c9c0e, 146506, 2400, 2400},
		{"incast", "tuned", 500, 0x7d8b5b7996c4fc1c, 194000, 2400, 2400},
		{"halo", "vl", 0, 0x1013aae4bf74f0b0, 14914, 5760, 5760},
		{"halo", "0delay", 0, 0xe36f22c30b380da8, 11048, 5760, 5760},
		{"halo", "adapt", 0, 0x70265d6d5a316b52, 11064, 5760, 5760},
		{"halo", "tuned", 0, 0xe36f22c30b380da8, 11048, 5760, 5760},
		{"halo", "vl", 500, 0xb1db2113bcfd84a2, 15500, 5760, 5760},
		{"pipeline", "vl", 0, 0x143faedae5a43908, 107664, 4816, 4816},
		{"pipeline", "0delay", 0, 0x5f74e40ef29db84c, 78797, 4816, 4816},
		{"pipeline", "adapt", 0, 0x767a502703d4802e, 78797, 4816, 4816},
		{"pipeline", "tuned", 0, 0xf7abca3fd7a63432, 78797, 4816, 4816},
		{"pipeline", "0delay", 500, 0xf5eaeac79a22b5bf, 79000, 4816, 4816},
		{"firewall", "vl", 0, 0x490c57d913971a2a, 150587, 4800, 4800},
		{"firewall", "0delay", 0, 0x66c715177b2f92fc, 101018, 4800, 4800},
		{"firewall", "adapt", 0, 0xd51121355e0cba47, 101034, 4800, 4800},
		{"firewall", "tuned", 0, 0x8b887dc2bf51893, 101018, 4800, 4800},
		{"firewall", "adapt", 500, 0x4d22a577d309b2b, 104000, 4800, 4800},
		{"FIR", "vl", 0, 0x19a8e9e6106baf46, 130913, 16200, 16200},
		{"FIR", "0delay", 0, 0xbe719f646ddaa093, 78731, 16200, 16200},
		{"FIR", "adapt", 0, 0x7eea2ce6807877e1, 94383, 16200, 16200},
		{"FIR", "tuned", 0, 0x7b454805be2ab3af, 88422, 16200, 16200},
		{"FIR", "tuned", 500, 0x116e02f87393549, 90000, 16200, 16200},
	}
	for _, tc := range cases {
		name := tc.bench + "/" + tc.alg
		if tc.evict > 0 {
			name += "/evict"
		}
		t.Run(name, func(t *testing.T) {
			w, ok := ByName(tc.bench)
			if !ok {
				t.Fatalf("no workload %q", tc.bench)
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
