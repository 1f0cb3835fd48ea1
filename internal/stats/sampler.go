// Package stats provides windowed time-series sampling of a running
// system: the overview view of §4.2's Figure 7 ("two phases: when the
// consumer runs faster at the beginning, transactions happen in a
// stable fashion ... after about 50 000 ns the producer generates a
// burst and the consumer becomes the bottleneck") generalized to any
// run. A Sampler snapshots the device and bus counters on a fixed
// period and reports per-window rates, from which phase changes are
// visible. It only observes: it schedules no event, so a sampled run
// dispatches exactly the events of an unsampled one.
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

// Sampler snapshots a system's counters at fixed period boundaries.
// Attach before Run.
type Sampler struct {
	sys    *spamer.System
	period uint64

	windows []Window // closed windows
	prev    counters // the counters when the last window closed
	lastT   uint64   // the tick the last window closed at
}

// counters is one snapshot of the counters a Window reports deltas of.
type counters struct {
	dev     vl.Stats
	bus     noc.Stats
	in, out uint64
}

// Attach installs a sampler with the given period in cycles as sys's
// kernel dispatch observer, which it needs for itself: it replaces any
// observer installed before it, and one installed later (such as
// System.EnableDispatchTrace) stops it. It must be called before
// System.Run. Window k covers [k·period, (k+1)·period) and closes just
// before the first event at or past its end; Windows adds the tail of
// the run up to the kernel's current tick, so window sums always equal
// end-of-run totals.
func Attach(sys *spamer.System, period uint64) *Sampler {
	if period == 0 {
		period = 4096
	}
	s := &Sampler{sys: sys, period: period}
	sys.Kernel().SetDispatchObserver(s.observe)
	return s
}

// observe runs before each dispatched event and closes every window the
// event's tick has reached the end of. Windows an idle stretch skips
// close empty.
func (s *Sampler) observe(tick, _ uint64) {
	for tick >= s.lastT+s.period {
		end := s.lastT + s.period
		now := s.read()
		s.windows = append(s.windows, s.since(now, end))
		s.prev, s.lastT = now, end
	}
}

// read snapshots the system's counters now.
func (s *Sampler) read() counters {
	var c counters
	for _, d := range s.sys.Devices() {
		c.dev = c.dev.Add(d.Stats())
	}
	c.bus = s.sys.Bus().Stats()
	for _, q := range s.sys.Queues() {
		c.in += q.Pushed()
		c.out += q.Popped()
	}
	return c
}

// since is the window from the last close to end, over which the
// counters moved from s.prev to now.
func (s *Sampler) since(now counters, end uint64) Window {
	return Window{
		StartTick:   s.lastT,
		EndTick:     end,
		Pushes:      now.dev.TotalPushes() - s.prev.dev.TotalPushes(),
		Failures:    now.dev.FailedPushes() - s.prev.dev.FailedPushes(),
		Fetches:     now.dev.Fetches - s.prev.dev.Fetches,
		BusBusy:     now.bus.BusyCycles - s.prev.bus.BusyCycles,
		MessagesIn:  now.in - s.prev.in,
		MessagesOut: now.out - s.prev.out,
	}
}

// Windows returns the closed windows followed by the tail: the window
// from the last close to the kernel's current tick, which is the end of
// the run once Run has returned. The tail is left out when no time
// passed and no counter moved since the last close, so reading the
// windows again emits nothing new.
func (s *Sampler) Windows() []Window {
	out := append([]Window(nil), s.windows...)
	end, now := s.sys.Kernel().Now(), s.read()
	if end > s.lastT || now != s.prev {
		out = append(out, s.since(now, end))
	}
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
	for _, w := range s.Windows() {
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
	for _, win := range s.Windows() {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
			win.StartTick, win.EndTick, win.Pushes, win.Failures, win.Fetches,
			win.BusBusy, win.MessagesIn, win.MessagesOut); err != nil {
			return err
		}
	}
	return nil
}
