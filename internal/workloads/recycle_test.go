package workloads

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"spamer"
)

// otherRuns differ from every golden case in each sized structure a
// system recycles: past the first block of tasks, pages, queues and
// endpoints, over several line chunks, with far-heap events,
// eviction, two routing devices, and device tables smaller and larger
// than the default.
var otherRuns = []struct {
	w   *Workload
	cfg spamer.Config
}{
	{(&Shape{Producers: 3, Consumers: 18, Lines: 3, Messages: 12}).Workload(),
		spamer.Config{Algorithm: spamer.AlgTuned, Devices: 2, SRDEntries: 16}},
	{(&Shape{Stages: 20, Messages: 4, ProdWork: 200}).Workload(),
		spamer.Config{Algorithm: spamer.AlgAdaptive, EvictEvery: 300, SRDEntries: 128}},
}

// prepareStorage readies the storage pools for the next system the
// caller builds. "fresh" empties them (a sync.Pool drops its contents
// over two collections), so the system is built on new storage;
// "recycled" runs otherRuns through Workload.Run, so it is built on
// storage those runs released.
func prepareStorage(t *testing.T, storage string) {
	t.Helper()
	switch storage {
	case "fresh":
		runtime.GC()
		runtime.GC()
	case "recycled":
		for _, o := range otherRuns {
			o.w.Run(o.cfg, 1)
		}
	default:
		t.Fatalf("unknown storage %q", storage)
	}
}

// storages are the two states the golden tests build each system in.
var storages = []string{"fresh", "recycled"}

// TestFailedRunRecyclesNothing: a run that panics (a deadlock, the
// watchdog, a failed step) hands none of its storage to the next run.
// Each failing run is built on storage a healthy run released, and none
// of the systems built after it gets its kernel, line arena, routing
// device or specBuf back.
func TestFailedRunRecyclesNothing(t *testing.T) {
	var built []*spamer.System
	failing := func(build func(*spamer.System)) *Workload {
		return &Workload{Name: "failing", Build: func(sys *spamer.System, _ int) {
			built = append(built, sys)
			build(sys)
		}}
	}
	healthy := (&Shape{Stages: 2, Messages: 4}).Workload()
	cases := []struct {
		name     string
		w        *Workload
		deadline uint64
	}{
		{"deadlock", failing(func(sys *spamer.System) {
			(&spamer.Stage{In: sys.NewQueue("starved"), N: 1}).Spawn(sys, "consumer")
		}), 0},
		{"step-panic", failing(func(sys *spamer.System) {
			sys.SpawnFunc("boom", func(uint64) { panic("step failed") }, 0)
		}), 0},
		{"watchdog", failing(func(sys *spamer.System) {
			healthy.Build(sys, 1)
		}), 100},
	}
	for _, tc := range cases {
		for _, alg := range []string{spamer.AlgBaseline, spamer.AlgTuned} {
			t.Run(tc.name+"/"+alg, func(t *testing.T) {
				cfg := spamer.Config{Algorithm: alg}
				healthy.Run(cfg, 1)
				cfg.Deadline = tc.deadline
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("the failing run returned")
						}
					}()
					tc.w.Run(cfg, 1)
				}()
				failed := built[len(built)-1]
				if failed.Kernel().LiveProcs() != 0 {
					t.Fatalf("the failed run left %d live threads", failed.Kernel().LiveProcs())
				}
				for i := 0; i < 4; i++ {
					next := spamer.NewSystem(spamer.Config{Algorithm: alg})
					if next.Kernel() == failed.Kernel() || next.AddressSpace() == failed.AddressSpace() ||
						next.Device() == failed.Device() || (next.SpecBuf() != nil && next.SpecBuf() == failed.SpecBuf()) {
						t.Fatalf("system %d after the failed run reuses its storage", i)
					}
				}
			})
		}
	}
}

// TestReleasedStorageKeepsNothingAlive: pooled storage refers to
// nothing of the run that released it. Each stage of a released
// source-relay-sink chain holds a tag in its OnPop hook; the tags become
// garbage at the next collection, although that collection keeps the
// pooled storage (a sync.Pool drops its contents only at the second),
// so no stale wheel slot, line waiter, endpoint continuation or queued
// device write still reaches the stages. (The tags carry the
// finalizers because the stages themselves sit in reference cycles,
// whose finalizers never run.)
func TestReleasedStorageKeepsNothingAlive(t *testing.T) {
	var freed atomic.Int32
	tagged := func() func(spamer.Message) uint64 {
		tag := new([64]byte)
		runtime.SetFinalizer(tag, func(*[64]byte) { freed.Add(1) })
		return func(m spamer.Message) uint64 { return m.Payload + uint64(tag[0]) }
	}
	w := &Workload{Name: "tagged", Build: func(sys *spamer.System, _ int) {
		q, r := sys.NewQueue("q"), sys.NewQueue("r")
		(&spamer.Source{Out: q, N: 8, Work: 3}).Spawn(sys, "source")
		(&spamer.Stage{In: q, Out: r, N: 8, Work: 3, OnPop: tagged()}).Spawn(sys, "relay")
		(&spamer.Stage{In: r, Lines: 2, N: 8, Work: 3, OnPop: tagged()}).Spawn(sys, "sink")
	}}
	for _, alg := range []string{spamer.AlgBaseline, spamer.AlgTuned} {
		freed.Store(0)
		w.Run(spamer.Config{Algorithm: alg}, 1)
		runtime.GC()
		for wait := time.Now(); freed.Load() < 2 && time.Since(wait) < 2*time.Second; {
			time.Sleep(time.Millisecond)
		}
		if n := freed.Load(); n != 2 {
			t.Fatalf("%s: %d of the released run's 2 stage tags were collected: pooled storage keeps the run alive", alg, n)
		}
	}
}

// runBytesBound is the most a warm Workload.Run of the small shape in
// TestRecycledRunAllocationBound may allocate per run. Recycled storage
// leaves about 1.5 KB a run (the system record, thread records, bound
// continuations and the shape's own state); building the kernel, line
// arena, device, specBuf and queue library afresh costs over 60 KB.
const runBytesBound = 8 << 10

// TestRecycledRunAllocationBound pins the saving of recycled storage:
// after one warm-up run, Workload.Run of a two-stage shape allocates
// under runBytesBound per run, with the collector off so the pools keep
// what each run releases (the least of three tries of 50 runs each, so
// a stray background allocation does not count).
func TestRecycledRunAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of the storage runs release")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := (&Shape{Stages: 2, Messages: 2, Lines: 1}).Workload()
	cfg := spamer.Config{Algorithm: spamer.AlgTuned}
	w.Run(cfg, 1)
	const runs = 50
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			w.Run(cfg, 1)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("%d bytes per warm run (bound %d)", least, runBytesBound)
	if least > runBytesBound {
		t.Fatalf("a warm run allocated %d bytes, over the %d-byte bound: released storage is not reused", least, runBytesBound)
	}
}
