package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It
// keeps them in memory and writes them out once, when the run ends. A
// nil *tracer records nothing, so untraced code paths pay one nil check
// per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the ID of the span that caused it
// (0 = root); Run groups the spans of one request (a job id, a
// simulation label); Lane is the client, worker or goroutine that ran it,
// which becomes the viewer's thread row.
type span struct {
	ID, Parent int
	Name, Run  string
	Lane       int
	Start, End time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, run string, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: run, Lane: lane, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as the
// server-side queue wait taken from a job's status timestamps.
func (t *tracer) add(name string, parent int, run string, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.begin(name, parent, run, lane)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start.Sub(t.t0), end.Sub(t.t0)
	t.mu.Unlock()
}

// finished returns a copy of the closed spans. A server-side span can
// still be open when its request's client has returned.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its child spans cover. Children of one parent may overlap
// (parallel harness runs); their union, not their sum, is subtracted.
func (t *tracer) selfTimes() map[string]time.Duration {
	spans := t.finished()
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered measures the union of the children's intervals inside [lo, hi].
func covered(ch []span, lo, hi time.Duration) time.Duration {
	sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
	var total time.Duration
	cur := lo
	for _, c := range ch {
		s, e := max(c.Start, cur), min(c.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which chrome://tracing and Perfetto
// open directly. meta lands in the file's otherData block.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.encodeChrome(f, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encodeChrome(w io.Writer, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.finished()
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}

// layerOf maps a span name ("sim.run") to its layer ("sim").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// printSelfTimes reports the per-span self-time split, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Fprintf(w, "self time by span:\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %10.3f ms\n", n, millis(st[n]))
	}
}
