package mem

import (
	"testing"

	"spamer/internal/sim"
)

// BenchmarkLineSlab probes the arena's index-addressed slab directly —
// the loads the routing device issues per stash delivery and the
// consumer issues per dequeue. lookup is the address-to-line resolution
// alone (two shifts and two loads through the chunk table); fill-take
// adds the occupancy transition pair with its cold-slab accounting.
func BenchmarkLineSlab(b *testing.B) {
	k := sim.New()
	as := NewAddressSpace(k)
	pg := as.NewPage(linesPerChunk + 32) // span a chunk boundary
	addrs := make([]Addr, len(pg.Lines))
	for i, l := range pg.Lines {
		addrs[i] = l.Addr
	}

	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		var l *Line
		for i := 0; i < b.N; i++ {
			l = as.Lookup(addrs[i%len(addrs)])
		}
		_ = l
	})

	b.Run("fill-take", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := as.Lookup(addrs[i%len(addrs)])
			if !l.TryFill(Message{Seq: uint64(i)}) {
				b.Fatal("fill on non-empty line")
			}
			l.Take()
		}
	})

	b.Run("alloc", func(b *testing.B) {
		// Page allocation itself: slab growth amortized over lines.
		b.ReportAllocs()
		kb := sim.New()
		arena := NewAddressSpace(kb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arena.NewPage(8)
		}
		if arena.NumLines() != 8*b.N {
			b.Fatal("allocation count off")
		}
	})
}
