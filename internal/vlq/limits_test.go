package vlq

import (
	"testing"

	"spamer/internal/sim"
)

func TestQueueLimitEnforced(t *testing.T) {
	r := newRig(false)
	r.lib.Limits.MaxQueues = 2
	r.lib.NewQueue("a", nil)
	r.lib.NewQueue("b", nil)
	defer func() {
		if recover() == nil {
			t.Error("third queue allowed past MaxQueues=2")
		}
	}()
	r.lib.NewQueue("c", nil)
}

func TestSpecLineLimitDegradesToDemand(t *testing.T) {
	r := newRig(true)
	r.lib.Limits.MaxSpecLines = 4
	q := r.lib.NewQueue("q", nil)
	var c1, c2, c3 *Consumer
	script(r.k, "setup",
		open(q, 2, &c1), // 2/4 used
		open(q, 2, &c2), // 4/4 used
		open(q, 2, &c3)) // over limit: degrades
	r.k.Run()
	if !c1.SpecEnabled() || !c2.SpecEnabled() {
		t.Fatal("endpoints within the limit lost speculation")
	}
	if c3.SpecEnabled() {
		t.Fatal("endpoint past MaxSpecLines stayed spec-enabled")
	}
	if r.dev.Stats().Registers != 2 {
		t.Fatalf("registers = %d, want 2", r.dev.Stats().Registers)
	}
}

// TestSpecLimitIsolation: a limited (hostile) library instance cannot
// exhaust specBuf for a well-behaved one sharing the device.
func TestSpecLimitIsolation(t *testing.T) {
	r := newRig(true)
	// Attacker: tries to register many endpoints but is capped.
	attacker := r.lib
	attacker.Limits.MaxSpecLines = 8
	qa := attacker.NewQueue("attacker", nil)
	var c *Consumer
	script(r.k, "attacker", times(30, func(_ int, next sim.Cont) { open(qa, 2, &c)(next) }))
	r.k.Run()
	// The device-level specBuf must still have room (64 entries; the
	// attacker consumed at most 4 = 8 lines / 2 per endpoint).
	free := r.dev.Stats().Registers
	if free > 4 {
		t.Fatalf("attacker registered %d endpoints despite an 8-line cap", free)
	}
}
