package spamer

import "testing"

// TestEvictionInjectionCorrectness: under periodic line evictions every
// configuration still delivers every message in order — the retry loop
// (device side) and refetch-on-access (consumer side) absorb the
// faults.
func TestEvictionInjectionCorrectness(t *testing.T) {
	for _, alg := range Configs() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			sys := NewSystem(Config{Algorithm: alg, EvictEvery: 300, Deadline: 1 << 32})
			q := sys.NewQueue("q")
			const n = 300
			(&Source{Out: q, N: n, Work: 15}).Spawn(sys, "producer")
			(&Stage{In: q, Lines: 2, N: n, Work: 25, OnPop: inOrder(t, alg)}).Spawn(sys, "consumer")
			res := sys.Run()
			if res.Pushed != n || res.Popped != n {
				t.Fatalf("conservation: %d/%d", res.Pushed, res.Popped)
			}
			evictions := uint64(0)
			for _, c := range q.Consumers() {
				for _, l := range c.Lines() {
					evictions += l.Evictions()
				}
			}
			if evictions == 0 {
				t.Fatal("injector never fired")
			}
		})
	}
}

// TestEvictionInjectionDegradesGracefully: faults slow the system down
// but never by more than the retry-path worst case.
func TestEvictionInjectionDegradesGracefully(t *testing.T) {
	run := func(every uint64) Result {
		sys := NewSystem(Config{Algorithm: AlgTuned, EvictEvery: every, Deadline: 1 << 32})
		q := sys.NewQueue("q")
		const n = 300
		(&Source{Out: q, N: n, Work: 15}).Spawn(sys, "p")
		(&Stage{In: q, Lines: 2, N: n, Work: 25}).Spawn(sys, "c")
		return sys.Run()
	}
	clean := run(0)
	faulty := run(500)
	if faulty.Ticks < clean.Ticks {
		t.Fatalf("faults sped things up: %d vs %d", faulty.Ticks, clean.Ticks)
	}
	if float64(faulty.Ticks) > float64(clean.Ticks)*2.0 {
		t.Fatalf("faults more than doubled runtime: %d vs %d", faulty.Ticks, clean.Ticks)
	}
}

// TestEvictionInjectionOnWorkload: a full benchmark survives injection.
func TestEvictionInjectionOnWorkload(t *testing.T) {
	sys := NewSystem(Config{Algorithm: AlgZeroDelay, EvictEvery: 997, Deadline: 1 << 34})
	// firewall has 4 queues and 5 threads; build it inline to avoid an
	// import cycle with internal/workloads.
	rx := sys.NewQueue("rx")
	out := sys.NewQueue("out")
	const n = 400
	(&Source{Out: rx, N: n, Work: 20}).Spawn(sys, "rx")
	(&Stage{In: rx, Lines: 4, Out: out, N: n, Work: 40}).Spawn(sys, "fw")
	(&Stage{In: out, Lines: 4, N: n, Work: 15}).Spawn(sys, "sink")
	res := sys.Run()
	if res.Pushed != 2*n || res.Popped != 2*n {
		t.Fatalf("conservation: %d/%d", res.Pushed, res.Popped)
	}
}
