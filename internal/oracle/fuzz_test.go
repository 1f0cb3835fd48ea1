package oracle

import (
	"testing"

	"spamer/internal/oracle/gen"
)

// The fuzz targets map arbitrary input bytes to a generator seed and
// check the derived case under the full invariant battery. The fuzzer
// therefore explores the case space (shape dimensions, hardware knobs,
// algorithm mixes) rather than raw encodings, so every mutation is a
// valid simulation — coverage feedback steers it toward shapes that
// reach new simulator paths.

// FuzzSpamerVsVL checks SPAMeR-vs-baseline differential delivery on
// sequential M:N fan shapes: every speculative configuration must
// deliver the exact per-link sequences the VL baseline delivers.
func FuzzSpamerVsVL(f *testing.F) {
	f.Add([]byte("spamer"))
	f.Add([]byte{0})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := gen.New(gen.SeedFromBytes(data)).FanCase()
		if rep := CheckCase(cs); rep.Failed() {
			t.Fatalf("case seed %#x: %d violations, first: %s", cs.Seed, len(rep.Violations), &rep.Violations[0])
		}
	})
}
