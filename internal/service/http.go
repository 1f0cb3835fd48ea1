package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"spamer/internal/experiments"
)

// maxSpecBytes bounds a POST /v1/jobs body; a spec list is small JSON,
// anything megabyte-sized is a client bug.
const maxSpecBytes = 1 << 20

// Handler builds the HTTP API. Routes use Go 1.22 method+wildcard mux
// patterns, so unknown methods fall out as 405 automatically. The
// coordinator's wire protocol (register, heartbeat — docs/FABRIC.md)
// mounts under /v1/fabric/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("/v1/fabric/", http.StripPrefix("/v1/fabric", s.opts.Fabric.Handler()))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits a job. Responses:
//
//	202 — admitted; body carries the job id to poll
//	200 — cache hit; body already carries the outcomes
//	400 — malformed or invalid spec
//	429 — queue full; Retry-After: 1 (second) hints the backoff
//	503 — draining
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, err := experiments.ReadSpecs(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, "empty spec list")
		return
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
	}

	j, err := s.submit(specs)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting jobs")
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (depth %d): retry later", s.opts.QueueDepth)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	if s.opts.hookSubmitted != nil {
		s.opts.hookSubmitted(j)
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	code := http.StatusAccepted
	// Only a cache hit is a 200: a cold job that has already finished by
	// now is still a fresh simulation.
	if j.cached {
		code = http.StatusOK
	}
	writeJSON(w, code, j.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams a job's progress as Server-Sent Events: a
// snapshot frame on connect, run_start/run_done frames as specs start
// and finish, and exactly one terminal done/failed frame before the
// stream closes. Subscribing to a finished job replays just the terminal
// frame.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, snapshot := j.subscribe()
	defer j.unsubscribe(ch)
	writeEvent(w, snapshot)
	flusher.Flush()

	for {
		select {
		case ev := <-ch:
			writeEvent(w, ev)
			flusher.Flush()
		case <-j.doneCh:
			// Flush any progress frames still buffered, then emit the
			// terminal snapshot and end the stream.
			for {
				select {
				case ev := <-ch:
					writeEvent(w, ev)
					continue
				default:
				}
				break
			}
			writeEvent(w, j.terminalEvent())
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

func writeEvent(w http.ResponseWriter, ev Event) {
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w)
	s.opts.Fabric.WriteMetrics(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := map[string]any{
		"status":   "ok",
		"queued":   s.metrics.queueDepth.Load(),
		"inflight": s.metrics.inFlight.Load(),
	}
	if s.Draining() {
		st["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
