package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// metrics aggregates the serving-layer counters and renders them in
// Prometheus text exposition format (version 0.0.4). Hand-rolled on
// the standard library: the repo takes no dependencies, and the subset
// we need — gauges, counters, one histogram — is small.
type metrics struct {
	queueDepth atomic.Int64
	inFlight   atomic.Int64

	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	cacheEntries func() int // live size probe, set by the server

	jobsDone     atomic.Uint64
	jobsFailed   atomic.Uint64
	jobsRejected atomic.Uint64 // queue-full 429s

	runsDone   atomic.Uint64
	runsFailed atomic.Uint64

	latency histogram
}

func newMetrics() *metrics {
	return &metrics{
		// Per-job wall-clock buckets, in seconds: specs range from
		// sub-millisecond cached replays to multi-minute sweeps.
		latency: histogram{bounds: []float64{.001, .005, .025, .1, .5, 1, 2.5, 10, 60}},
	}
}

// write renders every metric. The output is deterministic (fixed
// order) so tests can assert on substrings.
func (m *metrics) write(w io.Writer) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("spamer_serve_queue_depth", "Jobs admitted and waiting for an executor.", m.queueDepth.Load())
	gauge("spamer_serve_in_flight", "Jobs currently executing.", m.inFlight.Load())
	if m.cacheEntries != nil {
		gauge("spamer_serve_cache_entries", "Entries in the content-addressed result cache.", int64(m.cacheEntries()))
	}
	counter("spamer_serve_cache_hits_total", "Jobs answered from the result cache without simulating.", m.cacheHits.Load())
	counter("spamer_serve_cache_misses_total", "Jobs that had to simulate.", m.cacheMisses.Load())

	const jobs = "spamer_serve_jobs_total"
	fmt.Fprintf(w, "# HELP %s Jobs by terminal outcome.\n# TYPE %s counter\n", jobs, jobs)
	fmt.Fprintf(w, "%s{outcome=\"done\"} %d\n", jobs, m.jobsDone.Load())
	fmt.Fprintf(w, "%s{outcome=\"failed\"} %d\n", jobs, m.jobsFailed.Load())
	fmt.Fprintf(w, "%s{outcome=\"rejected\"} %d\n", jobs, m.jobsRejected.Load())

	counter("spamer_serve_runs_total", "Individual (spec, algorithm) simulations completed.", m.runsDone.Load())
	counter("spamer_serve_runs_failed_total", "Specs that failed: a simulation panicked, timed out, or was cancelled.", m.runsFailed.Load())

	m.latency.write(w, "spamer_serve_job_duration_seconds", "Wall-clock seconds from admission to completion, per executed job.")
}

// histogram is a fixed-bucket Prometheus histogram.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []uint64  // lazily sized to len(bounds)
	inf    uint64
	sum    float64
	n      uint64
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]uint64, len(h.bounds))
	}
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.bounds) {
		h.counts[i]++
	} else {
		h.inf++
	}
	h.sum += v
	h.n++
}

func (h *histogram) write(w io.Writer, name, help string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		if h.counts != nil {
			cum += h.counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum+h.inf)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n)
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
