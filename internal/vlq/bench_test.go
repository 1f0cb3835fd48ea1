package vlq

import (
	"testing"

	"spamer/internal/sim"
)

// BenchmarkVLQPushPop measures the endpoint hot path in isolation: one
// producer/consumer pair streaming messages through a single queue on
// the full device stack, reported per push+pop round trip. The threads
// are step machines driving PushThen and PopThen, so this is the direct
// probe of the endpoint state machines' host cost (the SpecRun macro
// benchmark buries it under workload compute).
func BenchmarkVLQPushPop(b *testing.B) {
	for _, mode := range []struct {
		name string
		spec bool
	}{{"baseline", false}, {"spec", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			r := newRig(mode.spec)
			q := r.lib.NewQueue("bench", nil)
			n := b.N
			pushes(r.k, q, n, index)
			var c *Consumer
			script(r.k, "consumer", open(q, 2, &c), times(n, func(_ int, next sim.Cont) { c.PopThen(next) }))
			b.ReportAllocs()
			b.ResetTimer()
			r.k.Run()
			b.StopTimer()
			if popped := q.Popped(); popped != uint64(n) {
				b.Fatalf("popped %d of %d", popped, n)
			}
		})
	}
}
