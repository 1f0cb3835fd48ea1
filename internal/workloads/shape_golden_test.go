package workloads

import (
	"testing"

	"spamer"
	"spamer/internal/traffic"
)

// Golden dispatch traces of the synthetic shapes: chain, fan, closed-loop
// burst and open-loop arrival producers, WorkCounter drains and eviction
// pressure, each under the VL baseline and the tuned algorithm. The
// hashes, ticks and delivered counts were recorded with every synthetic
// thread running as a blocking coroutine process; any implementation of
// the shapes must dispatch the same (tick, seq) stream, on fresh storage
// and on storage other runs released. The EvictEvery cases also pin
// when the eviction injector stops: it reads the live thread count, so
// a thread that stops counting early moves the trace.
func TestGoldenShapeTraces(t *testing.T) {
	stream := func(n int) Shape {
		return Shape{
			Stages: 2, Messages: n, Lines: 4, Window: 8,
			Arrival: &traffic.Spec{Seed: 0xB6, MeanGap: 400, Users: 16},
		}
	}
	cases := []struct {
		name   string
		shape  Shape
		alg    string
		evict  uint64
		hash   uint64
		ticks  uint64
		popped uint64
	}{
		{name: "stream-20k", shape: stream(20000), alg: spamer.AlgBaseline, hash: 0xf3cf38513bcee20d, ticks: 740044, popped: 20000},
		{name: "stream-20k", shape: stream(20000), alg: spamer.AlgTuned, hash: 0x4a715e3e891934aa, ticks: 540134, popped: 20000},
		{name: "open-mmpp-chain3", alg: spamer.AlgBaseline, hash: 0x93c2b40f16b5217, ticks: 56525, popped: 1200, shape: Shape{
			Stages: 3, Messages: 600, Lines: 4, Window: 8, ProdWork: 30, ConsWork: 50,
			Arrival: &traffic.Spec{Process: traffic.MMPP, Seed: 21, MeanGap: 150, Users: 4},
		}},
		{name: "open-mmpp-chain3", alg: spamer.AlgTuned, hash: 0xfb23978c121b42a0, ticks: 37956, popped: 1200, shape: Shape{
			Stages: 3, Messages: 600, Lines: 4, Window: 8, ProdWork: 30, ConsWork: 50,
			Arrival: &traffic.Spec{Process: traffic.MMPP, Seed: 21, MeanGap: 150, Users: 4},
		}},
		{name: "burst-chain4", alg: spamer.AlgBaseline, hash: 0x911b950a5ebffca3, ticks: 65810, popped: 1500, shape: Shape{
			Stages: 4, Messages: 500, Burst: 8, ProdWork: 20, ConsWork: 10,
		}},
		{name: "burst-chain4", alg: spamer.AlgTuned, hash: 0xe094b7cbf395ebbc, ticks: 66026, popped: 1500, shape: Shape{
			Stages: 4, Messages: 500, Burst: 8, ProdWork: 20, ConsWork: 10,
		}},
		{name: "fan-4:1", alg: spamer.AlgBaseline, hash: 0x2e45044674f58369, ticks: 44457, popped: 1200, shape: Shape{
			Producers: 4, Messages: 300, ProdWork: 40,
		}},
		{name: "fan-4:1", alg: spamer.AlgTuned, hash: 0x8a9566a387f0cf63, ticks: 32466, popped: 1200, shape: Shape{
			Producers: 4, Messages: 300, ProdWork: 40,
		}},
		{name: "fan-2:3-storm", alg: spamer.AlgBaseline, hash: 0xb57acb846d5cb092, ticks: 54213, popped: 800, shape: Shape{
			Producers: 2, Consumers: 3, Messages: 400, ConsWork: 60,
			Arrival: &traffic.Spec{Seed: 13, MeanGap: 200, StormEvery: 3000, StormBurst: 8},
		}},
		{name: "fan-2:3-storm", alg: spamer.AlgTuned, hash: 0xd9fb7bcd315d832b, ticks: 54220, popped: 800, shape: Shape{
			Producers: 2, Consumers: 3, Messages: 400, ConsWork: 60,
			Arrival: &traffic.Spec{Seed: 13, MeanGap: 200, StormEvery: 3000, StormBurst: 8},
		}},
		{name: "stream-3k-evict", shape: stream(3000), alg: spamer.AlgBaseline, evict: 500, hash: 0xc8eba3e5e0aabc29, ticks: 115500, popped: 3000},
		{name: "stream-3k-evict", shape: stream(3000), alg: spamer.AlgTuned, evict: 500, hash: 0xde912840d5e1f908, ticks: 83500, popped: 3000},
		{name: "chain3-evict", alg: spamer.AlgBaseline, evict: 300, hash: 0x8ef792bdc3e34431, ticks: 28200, popped: 800, shape: Shape{
			Stages: 3, Messages: 400, ProdWork: 15, ConsWork: 25,
		}},
		{name: "chain3-evict", alg: spamer.AlgTuned, evict: 300, hash: 0xe6c585e299c90af0, ticks: 16500, popped: 800, shape: Shape{
			Stages: 3, Messages: 400, ProdWork: 15, ConsWork: 25,
		}},
		{name: "fan-3:2-evict", alg: spamer.AlgBaseline, evict: 700, hash: 0x132b59dc564aa586, ticks: 25900, popped: 900, shape: Shape{
			Producers: 3, Consumers: 2, Messages: 300, ConsWork: 20,
		}},
		{name: "fan-3:2-evict", alg: spamer.AlgTuned, evict: 700, hash: 0x3872817ade222666, ticks: 13300, popped: 900, shape: Shape{
			Producers: 3, Consumers: 2, Messages: 300, ConsWork: 20,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/"+tc.alg, func(t *testing.T) {
			sh := tc.shape
			if err := sh.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, storage := range storages {
				prepareStorage(t, storage)
				sys := spamer.NewSystem(spamer.Config{Algorithm: tc.alg, EvictEvery: tc.evict})
				sys.EnableDispatchTrace()
				sh.Workload().Build(sys, 1)
				res := sys.Run()
				h := sys.DispatchTraceHash()
				t.Logf("%s storage: hash: %#x, ticks: %d, popped: %d", storage, h, res.Ticks, res.Popped)
				if h != tc.hash || res.Ticks != tc.ticks || res.Popped != tc.popped {
					t.Errorf("%s storage: got hash %#x ticks %d popped %d, want %#x %d %d",
						storage, h, res.Ticks, res.Popped, tc.hash, tc.ticks, tc.popped)
				}
			}
		})
	}
}
