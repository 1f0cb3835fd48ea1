package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// CoordinatorOptions tunes a Coordinator. The zero value is usable.
type CoordinatorOptions struct {
	// HeartbeatEvery is the cadence workers are told to heartbeat at
	// (default 2s).
	HeartbeatEvery time.Duration
	// ExpireAfter is the presence deadline: a worker silent for longer
	// is treated as dead and loses placement eligibility (default
	// 3 × HeartbeatEvery).
	ExpireAfter time.Duration
	// DispatchTimeout bounds one lease — the HTTP round trip that
	// carries a spec shard to a worker and its outcomes back. A worker
	// that hangs past it loses the lease, which is then re-placed.
	// Default 10m (simulations can be long); make it short in tests.
	DispatchTimeout time.Duration
	// MaxAttempts bounds re-dispatches per spec across distinct workers
	// (default 3). Exhausting it falls back to a local run unless
	// NoLocalFallback is set.
	MaxAttempts int
	// StoreEntries bounds the shared content-addressed result store
	// (default 4096; negative disables).
	StoreEntries int
	// NoLocalFallback disables running a spec on the coordinator itself
	// when the pool is empty or exhausted; the spec then fails with the
	// last dispatch error. With the default (fallback on), an empty pool
	// runs every spec in this process.
	NoLocalFallback bool
	// LocalWorkers is the harness pool width for local fallback runs
	// (<= 0 selects GOMAXPROCS).
	LocalWorkers int
	// RunTimeout bounds each local-fallback simulation; 0 means none.
	RunTimeout time.Duration
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 2 * time.Second
	}
	if o.ExpireAfter <= 0 {
		o.ExpireAfter = 3 * o.HeartbeatEvery
	}
	if o.DispatchTimeout <= 0 {
		o.DispatchTimeout = 10 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.StoreEntries == 0 {
		o.StoreEntries = 4096
	}
	return o
}

// maxInFlight bounds concurrently dispatched spec shards per RunSpecs
// call.
const maxInFlight = 64

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id    string
	addr  string
	slots int

	lastBeat    time.Time
	active      int // worker-reported depth at last heartbeat
	outstanding int // coordinator-side leases in flight
	draining    bool
	dead        bool
}

// Coordinator shards spec batches onto a pool of registered workers,
// with presence tracking, queue-depth-aware placement, lease-based
// retry on worker death, and a shared content-addressed result store.
// It is safe for concurrent use; internal/service drives one per
// process.
type Coordinator struct {
	opts    CoordinatorOptions
	store   *Store
	metrics *Metrics
	client  *http.Client

	mu       sync.Mutex
	workers  map[string]*workerState
	inflight map[string]chan struct{} // singleflight, keyed by spec hash

	leaseSeq atomic.Uint64
}

// NewCoordinator builds a Coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:     opts,
		store:    NewStore(opts.StoreEntries),
		metrics:  newMetrics(),
		client:   &http.Client{},
		workers:  map[string]*workerState{},
		inflight: map[string]chan struct{}{},
	}
	c.metrics.workersPresent = c.LiveWorkers
	c.metrics.storeEntries = c.store.Len
	return c
}

// Metrics exposes the fabric counters (for tests and the smoke tool).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// WriteMetrics renders the fabric metrics in Prometheus text format;
// internal/service appends it to its own /metrics output.
func (c *Coordinator) WriteMetrics(w io.Writer) { c.metrics.Write(w) }

// Handler serves the coordinator side of the wire protocol. The
// service layer mounts it under /v1/fabric/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", c.handleRegister)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, RegisterResponse{Version: ProtocolVersion, Error: err.Error()})
		return
	}
	if err := c.Register(req); err != nil {
		writeJSON(w, http.StatusBadRequest, RegisterResponse{Version: ProtocolVersion, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		Version:     ProtocolVersion,
		OK:          true,
		HeartbeatMS: c.opts.HeartbeatEvery.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&hb); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := checkVersion(hb.Version); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{
		Version:    ProtocolVersion,
		Registered: c.Beat(hb),
	})
}

// Register admits (or refreshes) a worker. A re-registration under an
// existing ID replaces the previous state — the normal path for a
// restarted worker process reusing its identity.
func (c *Coordinator) Register(req RegisterRequest) error {
	if err := checkVersion(req.Version); err != nil {
		return err
	}
	if req.ID == "" || req.Addr == "" {
		return fmt.Errorf("fabric: register requires id and addr")
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[req.ID] = &workerState{
		id:       req.ID,
		addr:     req.Addr,
		slots:    slots,
		lastBeat: time.Now(),
	}
	return nil
}

// Beat refreshes a worker's presence; false tells the worker to
// re-register (the coordinator does not know it).
func (c *Coordinator) Beat(hb Heartbeat) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[hb.ID]
	if !ok || ws.dead {
		return false
	}
	ws.lastBeat = time.Now()
	ws.active = hb.Active
	ws.draining = hb.Draining
	return true
}

// liveLocked reports whether ws is placeable at all (fresh heartbeat,
// not draining, not dead), reaping silent workers as a side effect.
func (c *Coordinator) liveLocked(ws *workerState, now time.Time) bool {
	if ws.dead || ws.draining {
		return false
	}
	if now.Sub(ws.lastBeat) > c.opts.ExpireAfter {
		ws.dead = true
		c.metrics.workerDeaths.Add(1)
		return false
	}
	return true
}

// LiveWorkers counts placeable workers (presence gauge).
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	n := 0
	for _, ws := range c.workers {
		if c.liveLocked(ws, now) {
			n++
		}
	}
	return n
}

// placement outcomes.
type placeState int

const (
	placed    placeState = iota // a lease was granted
	poolBusy                    // live workers exist but all are at capacity
	poolEmpty                   // no untried live worker remains
)

// place grants a lease on the best untried live worker: the lowest
// combined load (outstanding coordinator leases + worker-reported
// depth), ties broken by ID for determinism. It increments the
// winner's outstanding count; the caller must releaseLease.
func (c *Coordinator) place(tried map[string]bool) (*workerState, placeState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var best *workerState
	busy := false
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := c.workers[id]
		if tried[ws.id] || !c.liveLocked(ws, now) {
			continue
		}
		if ws.outstanding >= ws.slots {
			busy = true
			continue
		}
		if best == nil || ws.outstanding+ws.active < best.outstanding+best.active {
			best = ws
		}
	}
	if best == nil {
		if busy {
			return nil, poolBusy
		}
		return nil, poolEmpty
	}
	best.outstanding++
	return best, placed
}

func (c *Coordinator) releaseLease(ws *workerState) {
	c.mu.Lock()
	if ws.outstanding > 0 {
		ws.outstanding--
	}
	c.mu.Unlock()
}

// markDead evicts a worker after a transport-level dispatch failure.
func (c *Coordinator) markDead(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws, ok := c.workers[id]; ok && !ws.dead {
		ws.dead = true
		c.metrics.workerDeaths.Add(1)
	}
}

// markDraining records a worker that answered 503 (drain began between
// heartbeats) so placement skips it immediately.
func (c *Coordinator) markDraining(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws, ok := c.workers[id]; ok {
		ws.draining = true
	}
}

// RunOptions carries per-spec progress hooks through RunSpecs.
type RunOptions struct {
	// OnSpecStart fires when a spec shard leaves the store-lookup stage
	// and begins executing (remotely or locally).
	OnSpecStart func(label string)
	// OnSpecDone fires once per spec, however it ends; runs is the
	// (spec, algorithm) simulation count it returns, 0 when it failed.
	OnSpecDone func(label string, runs int, failed bool)
}

// specLabel names a spec in progress hooks and lease diagnostics.
func specLabel(s *experiments.Spec) string {
	if s.Label != "" {
		return s.Label
	}
	if s.Shape != nil {
		return "synthetic"
	}
	return s.Benchmark
}

// RunSpecs executes a spec batch across the worker pool and returns
// per-spec results in spec order, with per-spec Outcomes byte-identical
// to a local experiments.RunSpecsParallel run (the oracle's
// distributed-vs-local mode enforces this); a failed spec carries its
// error and no outcomes, wherever it ran. Each spec is independently
// store-checked, leased, retried on worker death, and — if the pool
// cannot run it — executed locally unless NoLocalFallback is set.
func (c *Coordinator) RunSpecs(ctx context.Context, specs []experiments.Spec, opts RunOptions) []experiments.SpecResult {
	results := make([]experiments.SpecResult, len(specs))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			results[i].Err = err
			if opts.OnSpecDone != nil {
				opts.OnSpecDone(specLabel(&specs[i]), 0, true)
			}
			continue
		}
		// Take the slot before starting the goroutine, so a large job
		// holds at most maxInFlight of them.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			results[i] = c.runSpec(ctx, specs[i], opts)
		}(i)
	}
	wg.Wait()
	return results
}

// runSpec resolves one spec: store hit, singleflight wait, or a
// dispatch loop ending in success, deterministic failure, or local
// fallback.
func (c *Coordinator) runSpec(ctx context.Context, spec experiments.Spec, opts RunOptions) experiments.SpecResult {
	label := specLabel(&spec)
	hash := spec.Hash()
	// Every way a spec ends fires OnSpecDone once. A failed spec comes
	// back with no outcomes, so the hook counts only simulations the
	// result returns.
	done := func(outs []experiments.Outcome, err error) experiments.SpecResult {
		if opts.OnSpecDone != nil {
			opts.OnSpecDone(label, len(outs), err != nil)
		}
		return experiments.SpecResult{Outcomes: outs, Err: err}
	}

	// Singleflight per content address: concurrent submissions of the
	// same spec dispatch once; everyone else waits and reads the store.
	var lead chan struct{}
	for {
		if outs, ok := c.store.Get(hash); ok {
			c.metrics.storeHits.Add(1)
			return done(outs, nil)
		}
		c.mu.Lock()
		if ch, ok := c.inflight[hash]; ok {
			c.mu.Unlock()
			select {
			case <-ch:
				continue // leader finished; re-check the store
			case <-ctx.Done():
				return done(nil, ctx.Err())
			}
		}
		lead = make(chan struct{})
		c.inflight[hash] = lead
		c.mu.Unlock()
		break
	}
	defer func() {
		c.mu.Lock()
		delete(c.inflight, hash)
		c.mu.Unlock()
		close(lead)
	}()
	c.metrics.storeMisses.Add(1)
	if opts.OnSpecStart != nil {
		opts.OnSpecStart(label)
	}

	outs, err := c.dispatch(ctx, &spec, hash, label)
	if err == nil {
		c.store.Put(hash, outs)
	}
	return done(outs, err)
}

// errSpecFailed marks a worker-reported deterministic simulation
// failure: the spec's run itself failed, so re-dispatching it to
// another worker would fail identically and the error is final.
type errSpecFailed struct{ msg string }

func (e *errSpecFailed) Error() string { return e.msg }

// errWorkerBusy marks a 503 from a worker (at capacity or draining):
// the lease moves on without counting against MaxAttempts or marking
// the worker dead.
type errWorkerBusy struct{ draining bool }

func (e *errWorkerBusy) Error() string { return "fabric: worker busy" }

// placeRetryDelay paces the placement loop while every live worker is
// at capacity.
const placeRetryDelay = 5 * time.Millisecond

// dispatch drives one spec's lease loop: place, call, and on transport
// failure evict the worker and re-place, at most MaxAttempts times
// across distinct workers, then fall back to a local run.
func (c *Coordinator) dispatch(ctx context.Context, spec *experiments.Spec, hash, label string) ([]experiments.Outcome, error) {
	attempts := 0
	var lastErr error
	tried := map[string]bool{}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ws, state := c.place(tried)
		switch state {
		case poolEmpty:
			return c.fallback(ctx, spec, lastErr)
		case poolBusy:
			select {
			case <-time.After(placeRetryDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}

		lease := fmt.Sprintf("l%06d-%.12s", c.leaseSeq.Add(1), hash)
		c.metrics.placements.Add(1)
		outs, err := c.call(ctx, ws, lease, spec)
		c.releaseLease(ws)
		if err == nil {
			wc := c.metrics.worker(ws.id)
			wc.specs.Add(1)
			wc.runs.Add(uint64(len(outs)))
			return outs, nil
		}
		if sf, ok := err.(*errSpecFailed); ok {
			// Verbatim, no worker prefix: a deterministic failure must
			// read byte-identically whether it ran here or on a worker —
			// the same contract outcomes are held to.
			return nil, errors.New(sf.msg)
		}
		if busy, ok := err.(*errWorkerBusy); ok {
			// Capacity raced ahead of our view; a draining worker is out
			// of the pool, a merely-busy one stays eligible next round.
			if busy.draining {
				c.markDraining(ws.id)
			}
			tried[ws.id] = busy.draining
			continue
		}
		// Transport-level failure: the worker died mid-lease (connection
		// reset), hung past DispatchTimeout, or spoke a bad protocol.
		// Evict it and re-place the lease.
		lastErr = fmt.Errorf("fabric: lease %s on worker %s: %w", lease, ws.id, err)
		c.markDead(ws.id)
		c.metrics.retries.Add(1)
		tried[ws.id] = true
		attempts++
		if attempts >= c.opts.MaxAttempts {
			return c.fallback(ctx, spec, lastErr)
		}
	}
}

// fallback runs the spec on the coordinator itself through the runner
// a worker uses (runShard), so an empty or failing pool degrades to
// single-process behaviour instead of failing jobs.
func (c *Coordinator) fallback(ctx context.Context, spec *experiments.Spec, lastErr error) ([]experiments.Outcome, error) {
	if c.opts.NoLocalFallback {
		if lastErr == nil {
			lastErr = fmt.Errorf("fabric: no live workers")
		}
		return nil, lastErr
	}
	c.metrics.localFallbacks.Add(1)
	return runShard(ctx, *spec, harness.Options{
		Workers: c.opts.LocalWorkers,
		Timeout: c.opts.RunTimeout,
	})
}

// call performs one lease round trip: POST the spec shard to the
// worker, decode and validate the response.
func (c *Coordinator) call(ctx context.Context, ws *workerState, lease string, spec *experiments.Spec) ([]experiments.Outcome, error) {
	body, err := json.Marshal(RunRequest{
		Version: ProtocolVersion,
		Lease:   lease,
		Spec:    *spec,
	})
	if err != nil {
		return nil, fmt.Errorf("marshal run request: %w", err)
	}
	cctx, cancel := context.WithTimeout(ctx, c.opts.DispatchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, ws.addr+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return nil, &errWorkerBusy{draining: eb.Error == drainingError}
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("worker returned %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, fmt.Errorf("decode run response: %w", err)
	}
	if err := checkVersion(rr.Version); err != nil {
		return nil, err
	}
	if rr.Err != "" {
		return nil, &errSpecFailed{msg: rr.Err}
	}
	return rr.Outcomes, nil
}
