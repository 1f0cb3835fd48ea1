package stats

import (
	"strings"
	"testing"

	"spamer"
	"spamer/internal/sim"
	"spamer/internal/workloads"
)

// buildTwoPhase builds a 1:1 stream whose producer switches from slow
// to fast halfway — the Figure 7 overview structure.
func buildTwoPhase(sys *spamer.System) {
	q := sys.NewQueue("q")
	const n = 600
	// A Source charges the same work per message, so the two-phase
	// producer is a step machine of its own.
	var tx *spamer.Producer
	var th *spamer.Thread
	i := 0
	var step func(uint64)
	step = func(state uint64) {
		switch state {
		case 0:
			tx = q.NewProducer(0)
			fallthrough
		case 1:
			if i == n {
				th.Task.Exit()
				return
			}
			work := uint64(200) // slow phase: producer-bound
			if i >= n/2 {
				work = 10 // fast phase: consumer-bound
			}
			sys.Kernel().AfterFunc(work, step, 2)
		case 2:
			tx.PushThen(uint64(i), sim.Cont{Fn: step, Arg: 3})
		case 3:
			i++
			step(1)
		}
	}
	th = sys.SpawnFunc("producer", step, 0)
	(&spamer.Stage{In: q, Lines: 4, N: n, Work: 60}).Spawn(sys, "consumer")
}

func TestSamplerWindowsCoverRun(t *testing.T) {
	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 32})
	buildTwoPhase(sys)
	s := Attach(sys, 2048)
	res := sys.Run()
	ws := s.Windows()
	if len(ws) < 4 {
		t.Fatalf("windows = %d", len(ws))
	}
	var in, out uint64
	prevEnd := uint64(0)
	for _, w := range ws {
		if w.StartTick != prevEnd {
			t.Fatalf("window gap: %d..%d after end %d", w.StartTick, w.EndTick, prevEnd)
		}
		prevEnd = w.EndTick
		in += w.MessagesIn
		out += w.MessagesOut
	}
	// The final partial window is flushed at drain, so window sums must
	// equal the end-of-run queue totals exactly — nothing from the tail
	// may vanish.
	if in != res.Pushed || out != res.Popped {
		t.Fatalf("window sums != totals: %d/%d vs %d/%d", in, out, res.Pushed, res.Popped)
	}
}

// TestSamplerFlushesTail is the regression test for the dropped tail
// window: with a period longer than the whole run, every message flows
// after the last (nonexistent) full period and the old sampler reported
// no windows at all.
func TestSamplerFlushesTail(t *testing.T) {
	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 32})
	buildTwoPhase(sys)
	s := Attach(sys, 1<<30) // period far beyond the run length
	res := sys.Run()
	ws := s.Windows()
	if len(ws) == 0 {
		t.Fatal("sampler dropped the final partial window")
	}
	var in, out, busy uint64
	for _, w := range ws {
		in += w.MessagesIn
		out += w.MessagesOut
		busy += w.BusBusy
	}
	if in != res.Pushed || out != res.Popped {
		t.Fatalf("tail window sums != totals: %d/%d vs %d/%d", in, out, res.Pushed, res.Popped)
	}
	if busy != res.Bus.BusyCycles {
		t.Fatalf("tail window busy = %d, want %d", busy, res.Bus.BusyCycles)
	}
	if last := ws[len(ws)-1]; last.EndTick != res.Ticks {
		t.Fatalf("last window ends at %d, run ended at %d", last.EndTick, res.Ticks)
	}
}

// Flush is idempotent: a second call with no time passed and no counter
// movement emits nothing.
func TestSamplerFlushIdempotent(t *testing.T) {
	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 32})
	buildTwoPhase(sys)
	s := Attach(sys, 2048)
	sys.Run()
	n := len(s.Windows())
	s.Flush()
	s.Flush()
	if got := len(s.Windows()); got != n {
		t.Fatalf("redundant Flush grew windows: %d -> %d", n, got)
	}
}

func TestSamplerDetectsPhases(t *testing.T) {
	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 32})
	buildTwoPhase(sys)
	s := Attach(sys, 2048)
	sys.Run()
	phases := s.Phases(0.35)
	if len(phases) < 2 {
		t.Fatalf("phases = %d, want >= 2 (slow then fast)", len(phases))
	}
	// Some later phase must be clearly faster than the first (the tail
	// phase can be a low-rate drain, so compare against the maximum).
	first := phases[0]
	maxRate := 0.0
	for _, p := range phases[1:] {
		if p.Rate > maxRate {
			maxRate = p.Rate
		}
	}
	if maxRate <= first.Rate*1.5 {
		t.Fatalf("no clear fast phase: first %.3f, max later %.3f", first.Rate, maxRate)
	}
}

func TestSamplerRates(t *testing.T) {
	w := Window{StartTick: 0, EndTick: 2000, Pushes: 10, Failures: 5}
	if got := w.Rate(w.Pushes); got != 5 {
		t.Fatalf("rate = %v", got)
	}
	if got := w.FailureRate(); got != 0.5 {
		t.Fatalf("failure rate = %v", got)
	}
	if (Window{}).FailureRate() != 0 {
		t.Fatal("zero-window failure rate")
	}
}

func TestSamplerCSV(t *testing.T) {
	sys := spamer.NewSystem(spamer.Config{Deadline: 1 << 32})
	w, _ := workloads.ByName("firewall")
	w.Build(sys, 1)
	s := Attach(sys, 8192)
	sys.Run()
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "start,end,") {
		t.Fatalf("csv header: %q", sb.String()[:20])
	}
	if strings.Count(sb.String(), "\n") < 3 {
		t.Fatalf("csv too short:\n%s", sb.String())
	}
}
