package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// drainingError is the error string a draining worker answers leases
// with; the coordinator distinguishes it from plain capacity 503s so a
// draining worker leaves the placement set immediately.
const drainingError = "draining"

// WorkerOptions tunes a Worker.
type WorkerOptions struct {
	// ID is the worker's stable identity (required; `spamer worker`
	// defaults it to host-pid).
	ID string
	// Coordinator is the coordinator's base URL, e.g. http://coord:8080.
	Coordinator string
	// Advertise is the base URL the coordinator dials back, e.g.
	// http://10.0.0.7:9090.
	Advertise string
	// Slots bounds concurrently executing spec shards (default 1);
	// excess leases bounce with 503 and re-place elsewhere.
	Slots int
	// RunWorkers is the harness pool width within one shard; <= 0
	// selects GOMAXPROCS.
	RunWorkers int
	// RunTimeout bounds each simulation; 0 means none.
	RunTimeout time.Duration
	// Log, when non-nil, receives one line per lifecycle event.
	Log io.Writer

	// hookRun, if set, is called at the start of every lease execution.
	// Test-only: the chaos test uses it to gate a worker mid-job.
	hookRun func(RunRequest)
}

// Worker is the agent side of the fabric: it executes leased spec
// shards via the exact local path (experiments.RunSpecsParallel),
// heartbeats its presence and queue depth to the coordinator, and
// drains gracefully — /healthz flips to 503 the moment drain begins so
// coordinators and load balancers stop routing to it, in-flight leases
// finish, new ones bounce.
type Worker struct {
	opts   WorkerOptions
	client *http.Client

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	active    atomic.Int64
	specsDone atomic.Uint64
	runsDone  atomic.Uint64
}

// NewWorker builds a Worker agent.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	return &Worker{opts: opts, client: &http.Client{Timeout: 10 * time.Second}}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		fmt.Fprintf(w.opts.Log, "spamer worker %s: "+format+"\n", append([]any{w.opts.ID}, args...)...)
	}
}

// Handler serves the worker side of the wire protocol.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", w.handleRun)
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("GET /metrics", w.handleMetrics)
	return mux
}

// Draining reports whether drain has begun.
func (w *Worker) Draining() bool {
	w.drainMu.RLock()
	defer w.drainMu.RUnlock()
	return w.draining
}

// Active reports the current queue depth (executing spec shards).
func (w *Worker) Active() int { return int(w.active.Load()) }

// admit claims an execution slot unless the worker is draining or at
// capacity; on success the caller must call the returned release.
func (w *Worker) admit() (release func(), errMsg string) {
	w.drainMu.RLock()
	defer w.drainMu.RUnlock()
	if w.draining {
		return nil, drainingError
	}
	for {
		a := w.active.Load()
		if a >= int64(w.opts.Slots) {
			return nil, "busy"
		}
		if w.active.CompareAndSwap(a, a+1) {
			break
		}
	}
	w.inflight.Add(1)
	return func() {
		w.active.Add(-1)
		w.inflight.Done()
	}, ""
}

func (w *Worker) handleRun(r http.ResponseWriter, req *http.Request) {
	var rr RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(r, req.Body, 1<<20)).Decode(&rr); err != nil {
		writeJSON(r, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := checkVersion(rr.Version); err != nil {
		writeJSON(r, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	release, errMsg := w.admit()
	if release == nil {
		writeJSON(r, http.StatusServiceUnavailable, errorBody{Error: errMsg})
		return
	}
	defer release()
	if w.opts.hookRun != nil {
		w.opts.hookRun(rr)
	}
	w.logf("lease %s: %d spec(s)", rr.Lease, len(rr.Specs))

	// The request context carries the coordinator's lease: if the
	// coordinator gives up (DispatchTimeout) or dies, queued runs are
	// cancelled with it instead of burning CPU on an orphaned lease.
	results := experiments.RunSpecsParallel(req.Context(), rr.Specs, harness.Options{
		Workers: w.opts.RunWorkers,
		Timeout: w.opts.RunTimeout,
	})
	resp := RunResponse{Version: ProtocolVersion, Worker: w.opts.ID, Lease: rr.Lease}
	for _, sr := range results {
		wr := WireResult{Index: sr.Index, Outcomes: sr.Outcomes}
		if sr.Err != nil {
			wr.Err = sr.Err.Error()
			wr.Outcomes = nil // a failed spec reports its error, not partial outcomes
		} else {
			w.specsDone.Add(1)
			w.runsDone.Add(uint64(len(sr.Outcomes)))
		}
		resp.Results = append(resp.Results, wr)
	}
	writeJSON(r, http.StatusOK, resp)
}

// handleHealthz mirrors the service-layer contract: 200 while serving,
// 503 the moment drain begins — load balancers and the coordinator
// stop routing to a draining worker instead of eating its 503s.
func (w *Worker) handleHealthz(r http.ResponseWriter, req *http.Request) {
	st := map[string]any{
		"status": "ok",
		"worker": w.opts.ID,
		"active": w.Active(),
	}
	if w.Draining() {
		st["status"] = drainingError
		writeJSON(r, http.StatusServiceUnavailable, st)
		return
	}
	writeJSON(r, http.StatusOK, st)
}

func (w *Worker) handleMetrics(r http.ResponseWriter, req *http.Request) {
	r.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(r, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(r, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("spamer_worker_active", "Spec shards currently executing.", int64(w.Active()))
	draining := int64(0)
	if w.Draining() {
		draining = 1
	}
	gauge("spamer_worker_draining", "1 once SIGTERM drain has begun.", draining)
	counter("spamer_worker_specs_total", "Spec shards completed.", w.specsDone.Load())
	counter("spamer_worker_runs_total", "Individual (spec, algorithm) simulations completed.", w.runsDone.Load())
}

// Announce registers with the coordinator (retrying until it answers)
// and then heartbeats at the coordinator-chosen cadence until ctx is
// cancelled. A heartbeat answered with registered=false — the
// coordinator restarted — triggers re-registration, so presence heals
// in one period. The final act is a best-effort draining heartbeat so
// placement stops before the process exits.
func (w *Worker) Announce(ctx context.Context) error {
	period, err := w.registerLoop(ctx)
	if err != nil {
		return err
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			w.beat(context.Background()) // carries Draining when drain began
			return ctx.Err()
		case <-ticker.C:
			registered, err := w.beat(ctx)
			if err != nil {
				w.logf("heartbeat: %v", err)
				continue
			}
			if !registered {
				w.logf("coordinator lost us; re-registering")
				if _, err := w.registerLoop(ctx); err != nil {
					return err
				}
			}
		}
	}
}

// registerLoop retries registration with capped backoff until the
// coordinator accepts or ctx ends, returning the heartbeat period.
func (w *Worker) registerLoop(ctx context.Context) (time.Duration, error) {
	backoff := 200 * time.Millisecond
	for {
		period, err := w.registerOnce(ctx)
		if err == nil {
			w.logf("registered with %s (heartbeat %v)", w.opts.Coordinator, period)
			return period, nil
		}
		w.logf("register: %v (retrying in %v)", err, backoff)
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (w *Worker) registerOnce(ctx context.Context) (time.Duration, error) {
	body, _ := json.Marshal(RegisterRequest{
		Version:  ProtocolVersion,
		ID:       w.opts.ID,
		Addr:     w.opts.Advertise,
		MaxProcs: runtime.GOMAXPROCS(0),
		Slots:    w.opts.Slots,
	})
	var rr RegisterResponse
	if err := w.post(ctx, "/v1/fabric/register", body, &rr); err != nil {
		return 0, err
	}
	if err := checkVersion(rr.Version); err != nil {
		return 0, err
	}
	if !rr.OK {
		return 0, fmt.Errorf("fabric: registration rejected: %s", rr.Error)
	}
	period := time.Duration(rr.HeartbeatMS) * time.Millisecond
	if period <= 0 {
		period = 2 * time.Second
	}
	return period, nil
}

func (w *Worker) beat(ctx context.Context) (registered bool, err error) {
	body, _ := json.Marshal(Heartbeat{
		Version:  ProtocolVersion,
		ID:       w.opts.ID,
		Active:   w.Active(),
		Draining: w.Draining(),
	})
	var hr HeartbeatResponse
	if err := w.post(ctx, "/v1/fabric/heartbeat", body, &hr); err != nil {
		return false, err
	}
	return hr.Registered, nil
}

func (w *Worker) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("fabric: %s returned %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Drain begins graceful shutdown: /healthz flips to 503 and new leases
// bounce immediately, then every in-flight lease finishes (bounded by
// ctx). The caller sends the final draining heartbeat by cancelling
// its Announce context afterwards.
func (w *Worker) Drain(ctx context.Context) error {
	w.drainMu.Lock()
	w.draining = true
	w.drainMu.Unlock()
	w.logf("draining (%d lease(s) in flight)", w.Active())
	// Best-effort immediate draining heartbeat: placement stops now,
	// not at the next ticker firing.
	w.beat(context.Background())

	finished := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
