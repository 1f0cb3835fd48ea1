package spamer

import (
	"fmt"
	"testing"
)

// TestMultiDeviceDistribution: queues spread round-robin over devices,
// traffic stays correct, and each device sets the flavour of the
// consumers opened on its queues.
func TestMultiDeviceDistribution(t *testing.T) {
	for _, alg := range []string{AlgTuned, AlgBaseline} {
		t.Run(alg, func(t *testing.T) {
			sys := NewSystem(Config{Algorithm: alg, Devices: 3, Deadline: 1 << 32})
			if len(sys.Devices()) != 3 {
				t.Fatalf("devices = %d", len(sys.Devices()))
			}
			const queues, perQueue = 6, 40
			for qi := 0; qi < queues; qi++ {
				q := sys.NewQueue("q")
				(&Source{Out: q, N: perQueue, Work: 20}).Spawn(sys, "producer")
				(&Stage{In: q, Lines: 2, N: perQueue, Work: 30,
					OnPop: inOrder(t, fmt.Sprintf("queue %d", qi))}).Spawn(sys, "consumer")
			}
			res := sys.Run()
			if res.Pushed != queues*perQueue || res.Popped != queues*perQueue {
				t.Fatalf("conservation: %d/%d", res.Pushed, res.Popped)
			}
			// Every device must have carried traffic (6 queues over 3 devices).
			for i, d := range sys.Devices() {
				if d.Stats().PushAccepts == 0 {
					t.Errorf("device %d idle", i)
				}
			}
			// Aggregated stats must cover all pushes.
			if res.Device.PushAccepts < queues*perQueue {
				t.Fatalf("aggregated accepts = %d", res.Device.PushAccepts)
			}
			for qi, q := range sys.Queues() {
				for _, c := range q.Consumers() {
					if c.SpecEnabled() != (alg != AlgBaseline) {
						t.Errorf("queue %d: consumer SpecEnabled = %v under %s", qi, c.SpecEnabled(), alg)
					}
				}
			}
		})
	}
}

// TestMultiDeviceMatchesSingleDeviceSemantics: a 1-queue workload is
// unaffected by extra devices.
func TestMultiDeviceMatchesSingleDeviceSemantics(t *testing.T) {
	run := func(devices int) Result {
		sys := NewSystem(Config{Algorithm: AlgZeroDelay, Devices: devices, Deadline: 1 << 32})
		q := sys.NewQueue("q")
		(&Source{Out: q, N: 100}).Spawn(sys, "p")
		(&Stage{In: q, Lines: 2, N: 100, Work: 25}).Spawn(sys, "c")
		return sys.Run()
	}
	a, b := run(1), run(4)
	if a.Ticks != b.Ticks {
		t.Fatalf("single-queue run differs across device counts: %d vs %d", a.Ticks, b.Ticks)
	}
}
