// Package trace reconstructs per-message queue transactions from
// simulator events, reproducing the §4.2 message-queue workload tracing
// and Figure 7: for each transaction it records when the producer data
// arrived at the routing device, when the consumer request arrived (on
// demand transactions only), when the target line vacated, when the data
// filled the line, and when the consumer first used it. From the
// stitched transactions it computes the paper's "potential speculative
// push saving": for on-demand transactions where the request was the
// last prerequisite, the difference between the fill timestamp and the
// later of data arrival and line vacation.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/mem"
)

// EventKind labels the Figure 7 marker rows (bottom to top).
type EventKind uint8

const (
	// EvDataArrive is producer data reaching the routing device.
	EvDataArrive EventKind = iota
	// EvRequestArrive is a consumer request reaching the routing device.
	EvRequestArrive
	// EvLineVacate is the consumer line becoming ready for new data.
	EvLineVacate
	// EvLineFill is producer data filling the consumer line.
	EvLineFill
	// EvFirstUse is the consumer's first use of the data.
	EvFirstUse
	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvDataArrive:
		return "data arrive"
	case EvRequestArrive:
		return "request arrive"
	case EvLineVacate:
		return "$line vacate"
	case EvLineFill:
		return "fill $line"
	case EvFirstUse:
		return "1st data use"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one timestamped marker.
type Event struct {
	Tick uint64
	Kind EventKind
	Line int    // line index within the endpoint (-1 if n/a)
	Seq  uint64 // message sequence number where known
}

// Transaction is one message's life cycle, stitched from events.
type Transaction struct {
	Seq         uint64
	DataArrive  uint64
	ReqArrive   uint64 // 0 when speculative (no request)
	Vacate      uint64 // 0 for the first use of a line
	Fill        uint64
	FirstUse    uint64
	Speculative bool
}

// PotentialSaving returns the Figure 7 metric for on-demand
// transactions: how much earlier the fill could have happened had a
// speculative push been triggered — fill minus the later of data arrival
// and line vacation — and whether the transaction was
// request-hindered (the request was the last of the three
// prerequisites).
func (tx Transaction) PotentialSaving() (saving uint64, hindered bool) {
	if tx.Speculative {
		return 0, false
	}
	ready := tx.DataArrive
	if tx.Vacate > ready {
		ready = tx.Vacate
	}
	if tx.ReqArrive <= ready || tx.Fill <= ready {
		return 0, false
	}
	return tx.Fill - ready, true
}

// Latency is first-use minus data arrival: the end-to-end load-to-use
// component the routing device controls.
func (tx Transaction) Latency() uint64 {
	if tx.FirstUse < tx.DataArrive {
		return 0
	}
	return tx.FirstUse - tx.DataArrive
}

// Tracer collects the Figure 7 events of every queue it observes. It is
// a vlq.Probe: install it with System.SetQueueProbe before the workload
// builds its queues.
type Tracer struct {
	events []Event
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Push implements vlq.Probe; a submitted push is not a Figure 7 event.
func (t *Tracer) Push(*spamer.Queue, int, uint64, mem.Message) {}

// Accept implements vlq.Probe: the push-accept tick at the device
// stands for the producer data's arrival.
func (t *Tracer) Accept(_ *spamer.Queue, _ int, tick, seq uint64) {
	t.Add(Event{Tick: tick, Kind: EvDataArrive, Line: -1, Seq: seq})
}

// Fetch implements vlq.Probe: the request reaches the device one hop
// plus its serialization after the consumer issues it.
func (t *Tracer) Fetch(_ *spamer.Queue, _, line int, tick uint64) {
	t.Add(Event{Tick: tick + config.HopCycles + config.CtrlPacketCycles, Kind: EvRequestArrive, Line: line})
}

// Fill implements vlq.Probe: the data fills the consumer line.
func (t *Tracer) Fill(_ *spamer.Queue, _, line int, tick uint64, msg mem.Message) {
	t.Add(Event{Tick: tick, Kind: EvLineFill, Line: line, Seq: msg.Seq})
}

// Pop implements vlq.Probe: the consumer's first use of the data, and
// the line vacating, at the same tick.
func (t *Tracer) Pop(_ *spamer.Queue, _, line int, tick uint64, msg mem.Message) {
	t.Add(Event{Tick: tick, Kind: EvFirstUse, Line: line, Seq: msg.Seq})
	t.Add(Event{Tick: tick, Kind: EvLineVacate, Line: line})
}

// Add appends a raw event.
func (t *Tracer) Add(e Event) { t.events = append(t.events, e) }

// Events returns all recorded events in time order.
func (t *Tracer) Events() []Event {
	out := make([]Event, len(t.events))
	copy(out, t.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tick < out[j].Tick })
	return out
}

// Transactions stitches events into per-message transactions for a
// single-line, single-producer trace (the configuration of Figure 7:
// "single message queue, a single consumer cacheline, and single
// producer thread"). Messages are matched in arrival order.
func (t *Tracer) Transactions() []Transaction {
	evs := t.Events()
	var arrivals, requests, vacates []uint64
	fills := map[uint64]*Transaction{}
	var order []uint64
	for _, e := range evs {
		switch e.Kind {
		case EvDataArrive:
			arrivals = append(arrivals, e.Tick)
		case EvRequestArrive:
			requests = append(requests, e.Tick)
		case EvLineVacate:
			vacates = append(vacates, e.Tick)
		case EvLineFill:
			tx := &Transaction{Seq: e.Seq, Fill: e.Tick}
			if len(order) < len(arrivals) {
				tx.DataArrive = arrivals[len(order)]
			}
			// A vacate that precedes this fill belongs to it (the
			// previous message leaving the line).
			for len(vacates) > 0 && vacates[0] <= e.Tick {
				tx.Vacate = vacates[0]
				vacates = vacates[1:]
			}
			if len(requests) > 0 && requests[0] <= e.Tick {
				tx.ReqArrive = requests[0]
				requests = requests[1:]
			} else {
				tx.Speculative = true
			}
			fills[e.Seq] = tx
			order = append(order, e.Seq)
		case EvFirstUse:
			if tx, ok := fills[e.Seq]; ok && tx.FirstUse == 0 {
				tx.FirstUse = e.Tick
			}
		}
	}
	out := make([]Transaction, 0, len(order))
	for _, seq := range order {
		out = append(out, *fills[seq])
	}
	return out
}

// Summary aggregates a trace.
type Summary struct {
	Transactions    int
	Speculative     int
	OnDemand        int
	Hindered        int    // on-demand transactions delayed by the request
	TotalSavingTk   uint64 // summed potential savings (ticks)
	MeanLatencyTk   float64
	MeanLatSpecTk   float64
	MeanLatDemandTk float64
}

// Summarize computes the aggregate view of a transaction list.
func Summarize(txs []Transaction) Summary {
	var s Summary
	var lat, latSpec, latDemand, nSpecLat, nDemandLat float64
	for _, tx := range txs {
		s.Transactions++
		if tx.Speculative {
			s.Speculative++
			latSpec += float64(tx.Latency())
			nSpecLat++
		} else {
			s.OnDemand++
			latDemand += float64(tx.Latency())
			nDemandLat++
		}
		if sv, h := tx.PotentialSaving(); h {
			s.Hindered++
			s.TotalSavingTk += sv
		}
		lat += float64(tx.Latency())
	}
	if s.Transactions > 0 {
		s.MeanLatencyTk = lat / float64(s.Transactions)
	}
	if nSpecLat > 0 {
		s.MeanLatSpecTk = latSpec / nSpecLat
	}
	if nDemandLat > 0 {
		s.MeanLatDemandTk = latDemand / nDemandLat
	}
	return s
}

// RenderTimeline writes a Figure 7-style ASCII timeline: one row per
// event kind (top: 1st data use ... bottom: data arrive), one column per
// time bucket; on-demand transactions render as 'o', speculative fills
// as '*'.
func RenderTimeline(w io.Writer, evs []Event, fromTick, toTick uint64, cols int) {
	if cols <= 0 {
		cols = 100
	}
	if toTick <= fromTick {
		return
	}
	span := toTick - fromTick
	grid := make([][]byte, numEventKinds)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	specFills := map[uint64]bool{}
	// Pre-scan for speculative fills: a fill with no request at or
	// before it (coarse per-event view).
	pendingReqs := 0
	for _, e := range evs {
		switch e.Kind {
		case EvRequestArrive:
			pendingReqs++
		case EvLineFill:
			if pendingReqs == 0 {
				specFills[e.Tick] = true
			} else {
				pendingReqs--
			}
		}
	}
	for _, e := range evs {
		if e.Tick < fromTick || e.Tick >= toTick {
			continue
		}
		col := int(uint64(cols) * (e.Tick - fromTick) / span)
		if col >= cols {
			col = cols - 1
		}
		ch := byte('o')
		if e.Kind == EvLineFill && specFills[e.Tick] {
			ch = '*'
		}
		grid[e.Kind][col] = ch
	}
	rows := []EventKind{EvFirstUse, EvLineFill, EvLineVacate, EvRequestArrive, EvDataArrive}
	for _, k := range rows {
		fmt.Fprintf(w, "%-15s %s\n", k, grid[k])
	}
	fmt.Fprintf(w, "%-15s %d..%d ticks ('o' on-demand, '*' speculative fill)\n", "", fromTick, toTick)
}

// WriteCSV dumps events for external plotting.
func WriteCSV(w io.Writer, evs []Event) error {
	if _, err := fmt.Fprintln(w, "tick,event,line,seq"); err != nil {
		return err
	}
	for _, e := range evs {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d\n", e.Tick, e.Kind, e.Line, e.Seq); err != nil {
			return err
		}
	}
	return nil
}
