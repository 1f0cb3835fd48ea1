package experiments

import (
	"context"
	"testing"

	"spamer"
	"spamer/internal/harness"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/swqueue"
	"spamer/internal/trace"
)

// Golden results of the two models no other golden covers: the
// coherence-based software queue of Figure 1a (swqueue.CoherentQueue,
// behind Figure 1 and the software-queue study) and the Figure-7
// tracing run. TestFigure1Ordering and
// TestSoftwareQueueStudy check only orderings; these pin the exact
// numbers, so a change to how either model schedules its events that
// moves a single dispatch shows up here.
const (
	// goldenTraceCoherent is the dispatch-trace hash of
	// runCoherentTraced: 50 messages through a depth-4 coherent queue.
	goldenTraceCoherent = 0xa7bc0d8ced51dd42
	goldenTicksCoherent = 7118
)

// runCoherentTraced pushes 50 messages through a depth-4 coherent
// queue with a dispatch recorder attached and returns the trace hash
// and the final tick.
func runCoherentTraced() (uint64, uint64) {
	k := sim.New()
	k.SetDeadline(1 << 30)
	rec := sim.NewTraceRecorder()
	rec.Attach(k)
	q := swqueue.NewCoherentQueue(k, noc.New(k), 4)
	const n = 50
	(&swStage{out: q.End(0), n: n}).spawn(k, "producer")
	(&swStage{in: []*swqueue.End{q.End(1)}, core: 1, n: n, work: 10}).spawn(k, "consumer")
	k.Run()
	return rec.Sum(), k.Now()
}

// TestSWIncastConservesMessages: the software incast's master pops each
// of the producers' 400 messages exactly once.
func TestSWIncastConservesMessages(t *testing.T) {
	popped := map[mem.Message]int{}
	pops := 0
	swIncast(func(m mem.Message) {
		popped[m]++
		pops++
	})
	if pops != swsMessages || len(popped) != swsMessages {
		t.Fatalf("master popped %d messages, %d distinct; want %d, each once", pops, len(popped), swsMessages)
	}
	for m := range popped {
		if m.Src < 0 || m.Src >= 4 || m.Seq >= swsMessages/4 || m.Payload != 0 {
			t.Errorf("popped %+v, which no producer pushed", m)
		}
	}
}

func TestGoldenBaselineModels(t *testing.T) {
	t.Run("coherent-trace", func(t *testing.T) {
		h, ticks := runCoherentTraced()
		if h != goldenTraceCoherent || ticks != goldenTicksCoherent {
			t.Errorf("coherent queue: trace %#x at tick %d, golden %#x at tick %d",
				h, ticks, uint64(goldenTraceCoherent), goldenTicksCoherent)
		}
	})

	t.Run("figure1", func(t *testing.T) {
		want := swqueue.Figure1Result{Lc: 276, Lv: 44, Ls: 13, Messages: 300}
		if got := swqueue.RunFigure1(); got != want {
			t.Errorf("RunFigure1 = %+v, golden %+v", got, want)
		}
	})

	t.Run("software-queue-study", func(t *testing.T) {
		rows, err := SoftwareQueueStudyParallel(context.Background(), harness.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := []struct {
			workload           string
			sw, vl, spamerTick uint64
		}{
			{"chain3", 122338, 29680, 17311},
			{"incast4", 63082, 22886, 10931},
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i, w := range want {
			r := rows[i]
			if r.Workload != w.workload || r.SWTicks != w.sw || r.VLTicks != w.vl || r.SpTicks != w.spamerTick {
				t.Errorf("row %d = %s sw=%d vl=%d spamer=%d, golden %s sw=%d vl=%d spamer=%d",
					i, r.Workload, r.SWTicks, r.VLTicks, r.SpTicks, w.workload, w.sw, w.vl, w.spamerTick)
			}
		}
	})

	for _, tc := range []struct {
		alg   string
		ticks uint64
		sum   trace.Summary
	}{
		{spamer.AlgBaseline, 40155, trace.Summary{
			Transactions: 220, OnDemand: 220, Hindered: 206, TotalSavingTk: 3502,
			MeanLatencyTk: 21, MeanLatDemandTk: 21,
		}},
		{spamer.AlgTuned, 40155, trace.Summary{
			Transactions: 220, Speculative: 220,
			MeanLatencyTk: 55.88181818181818, MeanLatSpecTk: 55.88181818181818,
		}},
	} {
		t.Run("figure7-"+tc.alg, func(t *testing.T) {
			tr, res := trace.RunFigure7(trace.DefaultFigure7(tc.alg))
			if res.Ticks != tc.ticks {
				t.Errorf("ticks = %d, golden %d", res.Ticks, tc.ticks)
			}
			if got := trace.Summarize(tr.Transactions()); got != tc.sum {
				t.Errorf("summary = %+v, golden %+v", got, tc.sum)
			}
		})
	}
}
