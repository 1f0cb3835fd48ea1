package sim

// TraceOffset is the FNV-1a offset basis trace hashes start from.
const TraceOffset uint64 = 14695981039346656037

// TraceFold folds one (tick, seq) pair into an FNV-1a style hash without
// allocating — the same byte-wise fold the golden-trace tests use.
func TraceFold(h, tick, seq uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (tick >> (8 * i) & 0xff)) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (seq >> (8 * i) & 0xff)) * prime
	}
	return h
}

// TraceRecorder accumulates one kernel's dispatch trace as the FNV-1a
// fold over its (tick, seq) pairs, plus an event count — shared by the
// golden tests, the System trace plumbing, and the verification oracle.
type TraceRecorder struct {
	h uint64
	n uint64
}

// NewTraceRecorder returns a recorder seeded with TraceOffset.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{h: TraceOffset} }

// Attach installs the recorder as k's dispatch observer. A kernel has a
// single observer slot; attaching replaces any previous one.
func (t *TraceRecorder) Attach(k *Kernel) { k.SetDispatchObserver(t.observe) }

func (t *TraceRecorder) observe(tick, seq uint64) {
	t.h = TraceFold(t.h, tick, seq)
	t.n++
}

// Sum reports the accumulated trace hash.
func (t *TraceRecorder) Sum() uint64 { return t.h }

// Events reports how many dispatches have been folded in.
func (t *TraceRecorder) Events() uint64 { return t.n }
