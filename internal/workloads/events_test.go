package workloads

import (
	"testing"

	"spamer"
	"spamer/internal/traffic"
)

// runCounted builds w under alg at scale 1, runs it, and returns the
// result with the kernel's Executed() count. It fails the test unless
// that count equals the number of events the dispatch observer saw.
func runCounted(t *testing.T, w *Workload, alg string) (spamer.Result, uint64) {
	t.Helper()
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg, Deadline: 1 << 40})
	var seen uint64
	sys.Kernel().SetDispatchObserver(func(uint64, uint64) { seen++ })
	w.Build(sys, 1)
	res := sys.Run()
	if got := sys.Kernel().Executed(); got != seen {
		t.Fatalf("%s/%s: Executed() = %d, observer saw %d events", w.Name, alg, got, seen)
	}
	return res, seen
}

// TestEventCounts pins how many events the reference runs dispatch, so
// a change in events per message shows up in review: the stream shape
// of BenchmarkMillionMessage at 10^5 messages under tuned, and the eight
// Table-2 kernels under vl and tuned at scale 1. Each run also checks
// that Kernel.Executed() agrees with the dispatch observer. The totals
// were recorded before the event queue stopped tracking its wheel
// length.
func TestEventCounts(t *testing.T) {
	const (
		streamEvents   = 1_499_150
		table2Messages = 84_656
		table2Events   = 1_507_516
	)
	sh := Shape{
		Stages: 2, Messages: 100_000, Lines: 4, Window: 8,
		Arrival: &traffic.Spec{Seed: 0xB6, MeanGap: 400, Users: 16},
	}
	res, events := runCounted(t, sh.Workload(), spamer.AlgTuned)
	t.Logf("stream: %d messages, %d events, %.2f events/msg",
		res.Popped, events, float64(events)/float64(res.Popped))
	if res.Popped != 100_000 || events != streamEvents {
		t.Errorf("stream: %d messages, %d events, want 100000 and %d", res.Popped, events, streamEvents)
	}

	var msgs, total uint64
	for _, w := range All() {
		for _, alg := range []string{spamer.AlgBaseline, spamer.AlgTuned} {
			res, events := runCounted(t, w, alg)
			msgs += res.Popped
			total += events
		}
	}
	t.Logf("table 2: %d messages, %d events, %.2f events/msg",
		msgs, total, float64(total)/float64(msgs))
	if msgs != table2Messages || total != table2Events {
		t.Errorf("table 2: %d messages, %d events, want %d and %d", msgs, total, table2Messages, table2Events)
	}
}
