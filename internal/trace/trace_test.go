package trace

import (
	"strings"
	"testing"

	"spamer"
)

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvDataArrive, EvRequestArrive, EvLineVacate, EvLineFill, EvFirstUse}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad/duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

func TestStitchOnDemandTransaction(t *testing.T) {
	tr := New()
	tr.Accept(nil, 0, 100, 0)
	tr.Add(Event{Tick: 150, Kind: EvRequestArrive, Line: 0})
	tr.Add(Event{Tick: 120, Kind: EvLineVacate, Line: 0})
	tr.Add(Event{Tick: 180, Kind: EvLineFill, Line: 0, Seq: 0})
	tr.Add(Event{Tick: 190, Kind: EvFirstUse, Line: 0, Seq: 0})
	txs := tr.Transactions()
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	tx := txs[0]
	if tx.Speculative {
		t.Fatal("transaction marked speculative despite request")
	}
	if tx.DataArrive != 100 || tx.ReqArrive != 150 || tx.Vacate != 120 || tx.Fill != 180 || tx.FirstUse != 190 {
		t.Fatalf("tx = %+v", tx)
	}
	// Request (150) was the last prerequisite before fill (180):
	// potential saving = fill - max(data, vacate) = 180 - 120 = 60.
	sv, hindered := tx.PotentialSaving()
	if !hindered || sv != 60 {
		t.Fatalf("saving = %d hindered=%v, want 60/true", sv, hindered)
	}
	if tx.Latency() != 90 {
		t.Fatalf("latency = %d, want 90", tx.Latency())
	}
}

func TestStitchSpeculativeTransaction(t *testing.T) {
	tr := New()
	tr.Accept(nil, 0, 100, 3)
	tr.Add(Event{Tick: 110, Kind: EvLineFill, Line: 0, Seq: 3})
	tr.Add(Event{Tick: 130, Kind: EvFirstUse, Line: 0, Seq: 3})
	txs := tr.Transactions()
	if len(txs) != 1 || !txs[0].Speculative {
		t.Fatalf("txs = %+v", txs)
	}
	if _, hindered := txs[0].PotentialSaving(); hindered {
		t.Fatal("speculative transaction counted as request-hindered")
	}
}

// TestFigure7VLTrace: the on-demand trace has a request per transaction
// and some request-hindered transactions with positive potential saving
// (the dark transactions of Figure 7).
func TestFigure7VLTrace(t *testing.T) {
	tr, res := RunFigure7(DefaultFigure7(spamer.AlgBaseline))
	if res.Pushed != res.Popped {
		t.Fatalf("conservation: %d vs %d", res.Pushed, res.Popped)
	}
	txs := tr.Transactions()
	if len(txs) < 200 {
		t.Fatalf("stitched %d transactions, want ~220", len(txs))
	}
	sum := Summarize(txs)
	if sum.Speculative != 0 {
		t.Fatalf("VL trace has %d speculative transactions", sum.Speculative)
	}
	if sum.Hindered == 0 || sum.TotalSavingTk == 0 {
		t.Fatalf("no request-hindered transactions found: %+v", sum)
	}
}

// TestFigure7SpamerTrace: the SPAMeR trace has speculative transactions
// (no request arrival) and lower mean latency than the VL trace.
func TestFigure7SpamerTrace(t *testing.T) {
	trVL, _ := RunFigure7(DefaultFigure7(spamer.AlgBaseline))
	trSp, _ := RunFigure7(DefaultFigure7(spamer.AlgZeroDelay))
	sumVL := Summarize(trVL.Transactions())
	sumSp := Summarize(trSp.Transactions())
	if sumSp.Speculative == 0 {
		t.Fatal("SPAMeR trace has no speculative transactions")
	}
	if sumSp.OnDemand != 0 {
		t.Fatalf("SPAMeR trace has %d on-demand transactions", sumSp.OnDemand)
	}
	// With a single line and a producer-bound first phase, both traces
	// are dominated by data arrival; speculation must not be slower.
	if sumSp.MeanLatencyTk > sumVL.MeanLatencyTk+1 {
		t.Fatalf("SPAMeR mean latency %.1f above VL %.1f",
			sumSp.MeanLatencyTk, sumVL.MeanLatencyTk)
	}
}

func TestRenderTimeline(t *testing.T) {
	tr, _ := RunFigure7(DefaultFigure7(spamer.AlgBaseline))
	evs := tr.Events()
	var sb strings.Builder
	RenderTimeline(&sb, evs, evs[0].Tick, evs[len(evs)-1].Tick+1, 80)
	out := sb.String()
	if !strings.Contains(out, "1st data use") || !strings.Contains(out, "data arrive") {
		t.Fatalf("timeline missing rows:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Fatal("timeline has no events")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New()
	tr.Accept(nil, 0, 10, 1)
	var sb strings.Builder
	if err := WriteCSV(&sb, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "10,data arrive,-1,1") {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestEventsSorted(t *testing.T) {
	tr := New()
	tr.Add(Event{Tick: 30, Kind: EvLineFill})
	tr.Add(Event{Tick: 10, Kind: EvDataArrive})
	tr.Add(Event{Tick: 20, Kind: EvRequestArrive})
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Tick < evs[i-1].Tick {
			t.Fatalf("events unsorted: %+v", evs)
		}
	}
}
