// Package stats provides windowed time-series sampling of a running
// system: the overview view of §4.2's Figure 7 ("two phases: when the
// consumer runs faster at the beginning, transactions happen in a
// stable fashion ... after about 50 000 ns the producer generates a
// burst and the consumer becomes the bottleneck") generalized to any
// run. A Sampler snapshots the device and bus counters on a fixed
// period and reports per-window rates, from which phase changes are
// visible.
package stats

import (
	"fmt"
	"io"

	"spamer"
	"spamer/internal/noc"
	"spamer/internal/vl"
)

// Window is one sampling interval's deltas.
type Window struct {
	StartTick uint64
	EndTick   uint64

	Pushes      uint64 // stashes issued (demand + speculative)
	Failures    uint64 // stashes that missed
	Fetches     uint64 // consumer requests processed
	BusBusy     uint64 // busy channel-cycles
	MessagesIn  uint64 // library-level pushes
	MessagesOut uint64 // library-level pops
}

// Rate returns events per kilocycle for a counter value in this window.
func (w Window) Rate(count uint64) float64 {
	d := w.EndTick - w.StartTick
	if d == 0 {
		return 0
	}
	return float64(count) / float64(d) * 1000
}

// FailureRate is failed/issued pushes within the window.
func (w Window) FailureRate() float64 {
	if w.Pushes == 0 {
		return 0
	}
	return float64(w.Failures) / float64(w.Pushes)
}

// Sampler periodically snapshots a system's counters. Attach before
// Run; windows accumulate until the simulation drains.
type Sampler struct {
	sys    *spamer.System
	period uint64
	tickFn func(uint64) // periodic sampling callback, bound once

	windows []Window

	prevDev vl.Stats
	prevBus noc.Stats
	prevIn  uint64
	prevOut uint64
	lastT   uint64
}

// Attach installs a sampler with the given period in cycles. It must be
// called before System.Run. The sampler snapshots every period while
// the simulation is live and flushes the final partial window when the
// run drains, so window sums always equal end-of-run totals.
func Attach(sys *spamer.System, period uint64) *Sampler {
	if period == 0 {
		period = 4096
	}
	s := &Sampler{sys: sys, period: period}
	s.tickFn = s.tick
	sys.Kernel().AfterFunc(period, s.tickFn, 0)
	sys.OnDrain(s.Flush)
	return s
}

// tick is the periodic sampling event. The bound func value in tickFn is
// what gets scheduled, so the per-period reschedule allocates nothing.
func (s *Sampler) tick(uint64) {
	s.snapshot()
	if s.sys.Kernel().LiveProcs() > 0 {
		s.sys.Kernel().AfterFunc(s.period, s.tickFn, 0)
	}
}

// Flush snapshots the tail of the run: the partial window between the
// last periodic sample and the moment the simulation drained. Without
// it, messages and pushes after the final full period would vanish from
// Windows, Phases, and WriteCSV. Attach hooks Flush into run
// completion; callers that stop a system early (RunUntil) may call it
// explicitly. Flush is idempotent — it emits nothing when no time
// passed and no counter moved since the last snapshot.
func (s *Sampler) Flush() {
	now := s.sys.Kernel().Now()
	if now > s.lastT {
		s.snapshot()
		return
	}
	// Same tick as the previous snapshot: emit a zero-width window only
	// if counters moved after it (events later in the same tick), so
	// totals still balance without recording empty windows.
	dev := aggregateDevs(s.sys)
	bus := s.sys.Bus().Stats()
	var in, out uint64
	for _, q := range s.sys.Queues() {
		in += q.Pushed()
		out += q.Popped()
	}
	if dev != s.prevDev || bus != s.prevBus || in != s.prevIn || out != s.prevOut {
		s.snapshot()
	}
}

func (s *Sampler) snapshot() {
	now := s.sys.Kernel().Now()
	dev := aggregateDevs(s.sys)
	bus := s.sys.Bus().Stats()
	var in, out uint64
	for _, q := range s.sys.Queues() {
		in += q.Pushed()
		out += q.Popped()
	}
	s.windows = append(s.windows, Window{
		StartTick:   s.lastT,
		EndTick:     now,
		Pushes:      dev.TotalPushes() - s.prevDev.TotalPushes(),
		Failures:    dev.FailedPushes() - s.prevDev.FailedPushes(),
		Fetches:     dev.Fetches - s.prevDev.Fetches,
		BusBusy:     bus.BusyCycles - s.prevBus.BusyCycles,
		MessagesIn:  in - s.prevIn,
		MessagesOut: out - s.prevOut,
	})
	s.prevDev, s.prevBus, s.prevIn, s.prevOut, s.lastT = dev, bus, in, out, now
}

func aggregateDevs(sys *spamer.System) vl.Stats {
	var agg vl.Stats
	for _, d := range sys.Devices() {
		agg = agg.Add(d.Stats())
	}
	return agg
}

// Windows returns the collected windows.
func (s *Sampler) Windows() []Window {
	out := make([]Window, len(s.windows))
	copy(out, s.windows)
	return out
}

// Phases segments the run greedily by throughput: consecutive windows
// whose message-out rate differs by less than tol (relative) merge into
// one phase. This recovers the "two phases" structure of Figure 7's
// overview chart.
type Phase struct {
	StartTick uint64
	EndTick   uint64
	Rate      float64 // messages out per kilocycle, averaged
}

// Phases segments with the given relative tolerance (e.g. 0.35).
func (s *Sampler) Phases(tol float64) []Phase {
	if tol <= 0 {
		tol = 0.35
	}
	var phases []Phase
	for _, w := range s.windows {
		r := w.Rate(w.MessagesOut)
		n := len(phases)
		if n > 0 {
			p := &phases[n-1]
			ref := p.Rate
			if ref == 0 && r == 0 || (ref > 0 && abs(r-ref)/ref <= tol) {
				// Extend the phase with a duration-weighted rate.
				dOld := float64(p.EndTick - p.StartTick)
				dNew := float64(w.EndTick - w.StartTick)
				p.Rate = (p.Rate*dOld + r*dNew) / (dOld + dNew)
				p.EndTick = w.EndTick
				continue
			}
		}
		phases = append(phases, Phase{StartTick: w.StartTick, EndTick: w.EndTick, Rate: r})
	}
	return phases
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// WriteCSV dumps windows for external plotting.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "start,end,pushes,failures,fetches,busbusy,msgs_in,msgs_out"); err != nil {
		return err
	}
	for _, win := range s.windows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
			win.StartTick, win.EndTick, win.Pushes, win.Failures, win.Fetches,
			win.BusBusy, win.MessagesIn, win.MessagesOut); err != nil {
			return err
		}
	}
	return nil
}
