package vl

// Stats aggregates the device counters the evaluation consumes: push
// attempt/outcome counts by kind (Figure 10a), fetch traffic, NACK
// backpressure events.
type Stats struct {
	PushAccepts uint64 // vl_push packets accepted into prodBuf
	PushNACKs   uint64 // vl_push packets refused (prodBuf full)

	Fetches    uint64 // vl_fetch packets processed
	FetchNACKs uint64 // vl_fetch packets refused (consBuf full)

	Registers uint64 // spamer_register packets processed

	DemandPushes uint64 // stashes issued to fulfil consumer requests
	DemandHits   uint64
	DemandMisses uint64

	SpecScheduled uint64 // entries routed to the speculative push queue
	SpecPushes    uint64 // speculative stashes issued
	SpecHits      uint64
	SpecMisses    uint64
}

// TotalPushes counts every stash issued, on-demand or speculative — the
// denominator of the Figure 10a failure rate.
func (s Stats) TotalPushes() uint64 { return s.DemandPushes + s.SpecPushes }

// FailedPushes counts stashes that drew a miss response.
func (s Stats) FailedPushes() uint64 { return s.DemandMisses + s.SpecMisses }

// FailureRate is FailedPushes / TotalPushes ("how many pushes fail out of
// total", §4.3), or 0 when no pushes were issued.
func (s Stats) FailureRate() float64 {
	t := s.TotalPushes()
	if t == 0 {
		return 0
	}
	return float64(s.FailedPushes()) / float64(t)
}

// Add returns the counter sums s + o (multi-device systems).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		PushAccepts:   s.PushAccepts + o.PushAccepts,
		PushNACKs:     s.PushNACKs + o.PushNACKs,
		Fetches:       s.Fetches + o.Fetches,
		FetchNACKs:    s.FetchNACKs + o.FetchNACKs,
		Registers:     s.Registers + o.Registers,
		DemandPushes:  s.DemandPushes + o.DemandPushes,
		DemandHits:    s.DemandHits + o.DemandHits,
		DemandMisses:  s.DemandMisses + o.DemandMisses,
		SpecScheduled: s.SpecScheduled + o.SpecScheduled,
		SpecPushes:    s.SpecPushes + o.SpecPushes,
		SpecHits:      s.SpecHits + o.SpecHits,
		SpecMisses:    s.SpecMisses + o.SpecMisses,
	}
}

// Sub returns the counter deltas s - prev, for windowed measurement.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		PushAccepts:   s.PushAccepts - prev.PushAccepts,
		PushNACKs:     s.PushNACKs - prev.PushNACKs,
		Fetches:       s.Fetches - prev.Fetches,
		FetchNACKs:    s.FetchNACKs - prev.FetchNACKs,
		Registers:     s.Registers - prev.Registers,
		DemandPushes:  s.DemandPushes - prev.DemandPushes,
		DemandHits:    s.DemandHits - prev.DemandHits,
		DemandMisses:  s.DemandMisses - prev.DemandMisses,
		SpecScheduled: s.SpecScheduled - prev.SpecScheduled,
		SpecPushes:    s.SpecPushes - prev.SpecPushes,
		SpecHits:      s.SpecHits - prev.SpecHits,
		SpecMisses:    s.SpecMisses - prev.SpecMisses,
	}
}
