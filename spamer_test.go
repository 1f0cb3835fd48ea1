package spamer

import (
	"fmt"
	"strings"
	"testing"

	"spamer/internal/sim"
)

// inOrder returns an OnPop hook that reports every message that
// arrives out of sequence.
func inOrder(t *testing.T, label string) func(Message) uint64 {
	next := uint64(0)
	return func(m Message) uint64 {
		if m.Seq != next {
			t.Errorf("%s: message %d has seq %d (FIFO violation)", label, next, m.Seq)
		}
		next++
		return m.Payload
	}
}

// runOneToOne runs a 1:1 queue with n messages and the given per-message
// consumer compute cost, returning the result.
func runOneToOne(t *testing.T, alg string, n int, computeCycles uint64) Result {
	t.Helper()
	sys := NewSystem(Config{Algorithm: alg, Deadline: 1 << 30})
	q := sys.NewQueue("q")
	(&Source{Out: q, N: n}).Spawn(sys, "producer")
	(&Stage{In: q, Lines: 4, N: n, Work: computeCycles, OnPop: inOrder(t, alg)}).Spawn(sys, "consumer")
	res := sys.Run()
	if res.Pushed != uint64(n) || res.Popped != uint64(n) {
		t.Fatalf("%s: pushed=%d popped=%d, want %d", alg, res.Pushed, res.Popped, n)
	}
	return res
}

func TestOneToOneAllConfigs(t *testing.T) {
	for _, alg := range Configs() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			res := runOneToOne(t, alg, 200, 20)
			if res.Ticks == 0 {
				t.Fatal("zero execution time")
			}
			if alg == AlgBaseline {
				if res.Device.SpecPushes != 0 {
					t.Fatalf("baseline issued %d spec pushes", res.Device.SpecPushes)
				}
			} else {
				if res.Device.SpecPushes == 0 {
					t.Fatalf("%s issued no spec pushes", alg)
				}
				if res.Device.Fetches != 0 {
					t.Fatalf("%s: spec-enabled consumer issued %d fetches", alg, res.Device.Fetches)
				}
			}
		})
	}
}

// TestSpeculationHelpsFastConsumer: with consumer compute well below the
// request round trip, SPAMeR should beat VL (the core claim).
func TestSpeculationHelpsFastConsumer(t *testing.T) {
	base := runOneToOne(t, AlgBaseline, 500, 10)
	for _, alg := range []string{AlgZeroDelay, AlgTuned} {
		s := runOneToOne(t, alg, 500, 10)
		if sp := s.Speedup(base); sp < 1.02 {
			t.Errorf("%s speedup = %.3f, want > 1.02 (VL %d ticks, %s %d ticks)",
				alg, sp, base.Ticks, alg, s.Ticks)
		}
	}
}

// TestProducerBoundNeutral: with an expensive producer the consumer is
// always ready, so speculation cannot help much — but must not hurt
// badly either (ping-pong/sweep behaviour in Figure 8).
func TestProducerBoundNeutral(t *testing.T) {
	mk := func(alg string) Result {
		sys := NewSystem(Config{Algorithm: alg, Deadline: 1 << 30})
		q := sys.NewQueue("q")
		const n = 200
		(&Source{Out: q, N: n, Work: 300}).Spawn(sys, "producer") // slow producer
		(&Stage{In: q, Lines: 4, N: n}).Spawn(sys, "consumer")
		return sys.Run()
	}
	base := mk(AlgBaseline)
	spec := mk(AlgZeroDelay)
	sp := spec.Speedup(base)
	if sp < 0.9 || sp > 1.15 {
		t.Errorf("producer-bound speedup = %.3f, want ~1.0", sp)
	}
}

// TestMNDeliveryExactlyOnce: a 3:2 queue delivers each message once.
func TestMNDeliveryExactlyOnce(t *testing.T) {
	for _, alg := range Configs() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			sys := NewSystem(Config{Algorithm: alg, Deadline: 1 << 30})
			q := sys.NewQueue("mn")
			const perProd, nProd, nCons = 60, 3, 2
			total := perProd * nProd
			for p := 0; p < nProd; p++ {
				(&Source{Out: q, N: perProd, Work: 15}).Spawn(sys, "producer")
			}
			got := make(chan [2]uint64, total)
			done := make([]int, nCons)
			for cidx := 0; cidx < nCons; cidx++ {
				cidx := cidx
				// Consumers split the work statically to avoid a
				// termination race; total is divisible by nCons.
				(&Stage{In: q, Lines: 4, N: total / nCons, Work: 25,
					OnPop: func(m Message) uint64 {
						got <- [2]uint64{uint64(m.Src), m.Seq}
						done[cidx]++
						return m.Payload
					},
				}).Spawn(sys, "consumer")
			}
			res := sys.Run()
			close(got)
			if res.Popped != uint64(total) {
				t.Fatalf("popped %d, want %d", res.Popped, total)
			}
			seen := map[[2]uint64]int{}
			for m := range got {
				seen[m]++
			}
			if len(seen) != total {
				t.Fatalf("distinct = %d, want %d", len(seen), total)
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("message %v seen %d times", k, n)
				}
			}
			for c, n := range done {
				if n == 0 {
					t.Errorf("consumer %d starved", c)
				}
			}
		})
	}
}

// TestPerProducerFIFO: each producer's messages arrive in order at a 1:1
// consumer even under retries.
func TestPerProducerFIFO(t *testing.T) {
	for _, alg := range Configs() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			sys := NewSystem(Config{Algorithm: alg, Deadline: 1 << 30})
			q := sys.NewQueue("fifo")
			const n = 300
			(&Source{Out: q, N: n}).Spawn(sys, "producer")
			// A Stage charges the same work per message, so the bursty
			// consumer is a step machine of its own.
			var c *Consumer
			var th *Thread
			i, last := 0, int64(-1)
			var step func(uint64)
			step = func(state uint64) {
				switch state {
				case 0:
					var pending bool
					c, pending = q.NewConsumerThen(2, sim.Cont{Fn: step, Arg: 1}) // small buffer: more retries
					if pending {
						return
					}
					fallthrough
				case 1:
					if i == n {
						th.Task.Exit()
						return
					}
					c.PopThen(sim.Cont{Fn: step, Arg: 2})
				case 2:
					m, _ := c.Result()
					if int64(m.Seq) != last+1 {
						t.Errorf("seq %d after %d", m.Seq, last)
					}
					last = int64(m.Seq)
					// Bursty consumption provokes failed pushes.
					if i++; i%10 == 0 {
						sys.Kernel().AfterFunc(400, step, 1)
						return
					}
					step(1)
				}
			}
			th = sys.SpawnFunc("consumer", step, 0)
			sys.Run()
		})
	}
}

// TestLegacyEndpointOnSpamer: the §3.4 legacy option — a demand-driven
// endpoint on a SPAMeR system still works and draws no spec pushes.
func TestLegacyEndpointOnSpamer(t *testing.T) {
	sys := NewSystem(Config{Algorithm: AlgZeroDelay, Deadline: 1 << 30})
	q := sys.NewQueue("legacy")
	const n = 100
	(&Source{Out: q, N: n}).Spawn(sys, "producer")
	// A Stage opens a spec-enabled endpoint on SPAMeR; this consumer
	// opens a legacy one and pops n messages from it.
	var c *Consumer
	var th *Thread
	popped := 0
	var step func(uint64)
	step = func(state uint64) {
		if state == 0 {
			c = q.NewConsumerLegacy(4)
			if c.SpecEnabled() {
				t.Error("legacy endpoint is spec-enabled")
			}
		} else {
			popped++
		}
		if popped == n {
			th.Task.Exit()
			return
		}
		c.PopThen(sim.Cont{Fn: step, Arg: 1})
	}
	th = sys.SpawnFunc("consumer", step, 0)
	res := sys.Run()
	if res.Device.SpecPushes != 0 {
		t.Fatalf("legacy endpoint drew %d spec pushes", res.Device.SpecPushes)
	}
	if res.Device.Fetches == 0 {
		t.Fatal("legacy endpoint issued no fetches")
	}
}

// TestDeterministicRuns: identical configurations produce identical
// results.
func TestDeterministicRuns(t *testing.T) {
	a := runOneToOne(t, AlgTuned, 150, 30)
	b := runOneToOne(t, AlgTuned, 150, 30)
	if a.Ticks != b.Ticks || a.Device != b.Device {
		t.Fatalf("nondeterminism: %+v vs %+v", a, b)
	}
}

// TestOccupancyAccounting: empty + non-empty integrals cover the full
// run for every consumer line.
func TestOccupancyAccounting(t *testing.T) {
	res := runOneToOne(t, AlgBaseline, 100, 20)
	perLine := res.EmptyTicks + res.NonEmptyTicks
	if perLine != uint64(res.ConsumerLines)*res.Ticks {
		t.Fatalf("occupancy %d != lines %d * ticks %d", perLine, res.ConsumerLines, res.Ticks)
	}
}

// TestInlineKnob: the non-inlined library is slower (the §3.4/§4.3
// inlining experiment).
func TestInlineKnob(t *testing.T) {
	run := func(noInline bool) Result {
		sys := NewSystem(Config{Algorithm: AlgBaseline, NoInline: noInline, Deadline: 1 << 30})
		q := sys.NewQueue("q")
		const n = 200
		(&Source{Out: q, N: n}).Spawn(sys, "producer")
		(&Stage{In: q, Lines: 4, N: n}).Spawn(sys, "consumer")
		return sys.Run()
	}
	inlined := run(false)
	called := run(true)
	if called.Ticks <= inlined.Ticks {
		t.Fatalf("inlining did not help: inlined %d, called %d", inlined.Ticks, called.Ticks)
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	sys := NewSystem(Config{})
	sys.Run()
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	(&Source{}).Spawn(sys, "late")
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm did not panic")
		}
	}()
	NewSystem(Config{Algorithm: "bogus"})
}

// KnownAlgorithm accepts exactly the names NewSystem builds without
// panicking.
func TestKnownAlgorithmMatchesNewSystem(t *testing.T) {
	for _, name := range append(Configs(), "", "zero", "adaptive", "history", "perceptron", "profiled", "dyntuned", "bogus", "VL") {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewSystem(Config{Algorithm: name})
			return false
		}()
		if KnownAlgorithm(name) == panicked {
			t.Errorf("KnownAlgorithm(%q) = %v, but NewSystem panicked = %v", name, KnownAlgorithm(name), panicked)
		}
	}
}

// TestSpawnFuncThreadDeadlockReported: a SpawnFunc thread that never
// exits counts as live, so Run reports the deadlock, and drains it.
func TestSpawnFuncThreadDeadlockReported(t *testing.T) {
	sys := NewSystem(Config{})
	q := sys.NewQueue("q")
	var rx *Consumer
	var th *Thread
	th = sys.SpawnFunc("sink", func(uint64) {
		rx, _ = q.NewConsumerThen(1, sim.Cont{Fn: func(uint64) {}})
		rx.PopThen(sim.Cont{Fn: func(uint64) { th.Task.Exit() }}) // nobody pushes
	}, 0)
	if sys.Threads() != 1 || th.Core != 0 {
		t.Fatalf("threads = %d, core = %d", sys.Threads(), th.Core)
	}
	defer func() {
		r := recover()
		if !strings.Contains(fmt.Sprint(r), "deadlock — 1 threads still parked") {
			t.Fatalf("Run panicked with %v, want the deadlock report", r)
		}
		if !th.Task.Exited() || sys.Kernel().LiveProcs() != 0 {
			t.Fatal("the deadlocked thread was not drained")
		}
	}()
	sys.Run()
}

// TestSpawnFuncThreadClock: a SpawnFunc thread reads the simulated
// time through its Thread.
func TestSpawnFuncThreadClock(t *testing.T) {
	sys := NewSystem(Config{})
	var th *Thread
	var seen []uint64
	var step func(uint64)
	step = func(arg uint64) {
		seen = append(seen, th.Now())
		if arg == 0 {
			sys.Kernel().AfterFunc(25, step, 1)
			return
		}
		th.Task.Exit()
	}
	th = sys.SpawnFunc("clock", step, 0)
	sys.Run()
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 25 {
		t.Fatalf("Now read %v, want [0 25]", seen)
	}
}
