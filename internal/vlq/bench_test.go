package vlq

import (
	"testing"

	"spamer/internal/sim"
)

// BenchmarkVLQPushPop measures the endpoint hot path in isolation: one
// producer/consumer pair streaming messages through a single queue on
// the full device stack, reported per push+pop round trip. The CPS
// state machines behind Push and Pop park the calling proc exactly once
// per operation, so this is the direct probe of the cost the endpoint
// batching rewrite targets (the SpecRun macro benchmark buries it under
// workload compute).
func BenchmarkVLQPushPop(b *testing.B) {
	for _, mode := range []struct {
		name string
		spec bool
	}{{"baseline", false}, {"spec", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			r := newRig(mode.spec)
			q := r.lib.NewQueue("bench")
			n := b.N
			r.k.Go("producer", func(p *sim.Proc) {
				pr := q.NewProducer(0)
				for i := 0; i < n; i++ {
					pr.Push(p, uint64(i))
				}
			})
			popped := 0
			r.k.Go("consumer", func(p *sim.Proc) {
				c := q.NewConsumer(p, 2)
				for i := 0; i < n; i++ {
					c.Pop(p)
					popped++
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			r.k.Run()
			b.StopTimer()
			if popped != n {
				b.Fatalf("popped %d of %d", popped, n)
			}
		})
	}
}
