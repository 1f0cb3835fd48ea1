// Package service is the simulation-as-a-service layer: a long-lived
// daemon that runs every job through a fabric coordinator
// (internal/fabric) behind a small HTTP API. With no worker attached,
// the coordinator runs each spec in this process.
//
//	POST /v1/jobs            submit a spec (or spec array) — the exact
//	                         JSON spamer run reads
//	GET  /v1/jobs/{id}       status + outcomes
//	GET  /v1/jobs/{id}/events  live progress (Server-Sent Events)
//	GET  /metrics            Prometheus text format
//	GET  /healthz            liveness / drain state
//	POST /v1/fabric/...      the coordinator's worker protocol
//
// Three properties define the layer:
//
//   - Bounded admission. At most QueueDepth jobs wait behind at most
//     JobWorkers executing ones; past that, submission fails fast with
//     429 + Retry-After instead of queueing unboundedly. Load shedding
//     is explicit and observable (jobs_total{outcome="rejected"}).
//
//   - Content-addressed results. Jobs are keyed by the canonical hash
//     of their spec list (experiments.HashSpecs); the simulator is
//     deterministic, so a repeated sweep — even spelled differently —
//     is answered from the LRU result cache without simulating.
//
//   - Graceful drain. Drain stops admission (503 on POST, /healthz
//     flips to draining) and lets every admitted job finish before the
//     executors exit, so SIGTERM never discards accepted work.
package service

import (
	"context"
	"fmt"
	"sync"

	"spamer/internal/experiments"
	"spamer/internal/fabric"
)

// Options tunes a Server. The zero value serves with sane defaults.
type Options struct {
	// QueueDepth bounds jobs admitted but not yet executing
	// (default 64). Full queue → 429.
	QueueDepth int
	// JobWorkers bounds concurrently executing jobs (default 1: one
	// sweep at a time keeps per-job latency predictable; raise it when
	// jobs are small).
	JobWorkers int
	// CacheEntries bounds the content-addressed result cache
	// (default 256; negative disables caching).
	CacheEntries int
	// Fabric is the coordinator every job runs through
	// (docs/FABRIC.md): specs shard by canonical hash onto registered
	// `spamer worker` processes, its wire endpoints mount under
	// /v1/fabric/, and its metrics join /metrics. With no worker
	// attached, its local fallback runs each spec in this process, sized
	// by its LocalWorkers and RunTimeout. Nil builds one with default
	// options.
	Fabric *fabric.Coordinator

	// hookRunning, if set, is called from the executor after a job
	// enters StateRunning and before its simulations start. Test-only:
	// lets tests gate the executor deterministically.
	hookRunning func(*job)
	// hookSubmitted, if set, is called by the submit handler after a
	// job is admitted and before the reply is written. Test-only: lets
	// tests finish a cold job before its reply.
	hookSubmitted func(*job)
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.Fabric == nil {
		o.Fabric = fabric.NewCoordinator(fabric.CoordinatorOptions{})
	}
	return o
}

// maxJobs bounds the in-memory job registry: past it, the oldest
// finished jobs are evicted, active jobs never.
const maxJobs = 4096

// Server executes experiment specs submitted over HTTP on a bounded
// worker pool. Create with New, expose via Handler, stop with Drain.
type Server struct {
	opts    Options
	metrics *metrics
	// cache is the content-addressed result cache: canonical spec-list
	// hash (experiments.HashSpecs) → the outcomes that list produced.
	// The simulator is deterministic, so a hit is exact. Bounded LRU
	// sized by Options.CacheEntries; a negative size stores nothing.
	cache *fabric.Store

	queue    chan *job
	stop     chan struct{} // closed once the queue has fully drained
	stopOnce sync.Once

	admitMu  sync.RWMutex // guards draining vs. in-flight admissions
	draining bool
	admitted sync.WaitGroup // one count per admitted, unfinished job

	workers sync.WaitGroup

	jobsMu sync.Mutex
	jobs   map[string]*job
	order  []string // registration order, for bounded eviction
	seq    uint64

	ctx    context.Context
	cancel context.CancelFunc
}

// New builds a Server and starts its executor goroutines.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		metrics: newMetrics(),
		cache:   fabric.NewStore(opts.CacheEntries),
		queue:   make(chan *job, opts.QueueDepth),
		stop:    make(chan struct{}),
		jobs:    map[string]*job{},
	}
	s.metrics.cacheEntries = s.cache.Len
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := 0; i < opts.JobWorkers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// submit admits a validated spec list: cache hit → a job born done;
// otherwise the job enters the bounded queue. A full queue or a
// draining server returns an error the HTTP layer maps to 429 / 503.
var (
	errQueueFull = fmt.Errorf("service: queue full")
	errDraining  = fmt.Errorf("service: draining")
)

func (s *Server) submit(specs []experiments.Spec) (*job, error) {
	hash := experiments.HashSpecs(specs)

	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return nil, errDraining
	}

	if outcomes, ok := s.cache.Get(hash); ok {
		s.metrics.cacheHits.Add(1)
		j := newJob(s.nextID(hash), hash, specs, totalRuns(specs))
		j.completeCached(outcomes)
		s.register(j)
		return j, nil
	}
	s.metrics.cacheMisses.Add(1)

	j := newJob(s.nextID(hash), hash, specs, totalRuns(specs))
	// Count the admission before the send: the executor's Done must
	// never be able to precede our Add.
	s.admitted.Add(1)
	select {
	case s.queue <- j:
		s.metrics.queueDepth.Add(1)
		s.register(j)
		return j, nil
	default:
		s.admitted.Done()
		s.metrics.jobsRejected.Add(1)
		return nil, errQueueFull
	}
}

func (s *Server) nextID(hash string) string {
	s.jobsMu.Lock()
	s.seq++
	n := s.seq
	s.jobsMu.Unlock()
	return fmt.Sprintf("j%05d-%.12s", n, hash)
}

// register adds a job to the registry, evicting the oldest finished
// jobs past maxJobs. Active jobs are never evicted, and they keep their
// place in order without pinning the finished jobs behind them.
func (s *Server) register(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for i := 0; len(s.jobs) > maxJobs && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		// Shift the i active jobs ahead of the victim over it.
		copy(s.order[1:i+1], s.order[:i])
		s.order = s.order[1:]
	}
}

func (s *Server) lookup(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.queue:
			s.execute(j)
		case <-s.stop:
			// Drain closes stop only after every admitted job has
			// finished, so the queue is already empty here; the sweep
			// below is a guard against future reorderings.
			for {
				select {
				case j := <-s.queue:
					s.execute(j)
				default:
					return
				}
			}
		}
	}
}

// execute runs one job's specs through the fabric coordinator,
// streaming per-spec progress to subscribers and recording the result
// in the cache.
func (s *Server) execute(j *job) {
	defer s.admitted.Done()
	s.metrics.queueDepth.Add(-1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	j.start()
	if s.opts.hookRunning != nil {
		s.opts.hookRunning(j)
	}
	results := s.opts.Fabric.RunSpecs(s.ctx, j.specs, fabric.RunOptions{
		OnSpecStart: j.specStart,
		OnSpecDone:  j.specDone,
	})

	var outcomes []experiments.Outcome
	var errs []string
	for i, r := range results {
		outcomes = append(outcomes, r.Outcomes...)
		if r.Err != nil {
			errs = append(errs, fmt.Sprintf("spec %d: %v", i, r.Err))
		}
	}
	clean := len(errs) == 0
	if clean {
		s.cache.Put(j.hash, outcomes)
		s.metrics.jobsDone.Add(1)
	} else {
		s.metrics.jobsFailed.Add(1)
	}
	j.complete(outcomes, errs)

	st := j.status()
	s.metrics.runsDone.Add(uint64(st.Runs.Done))
	s.metrics.runsFailed.Add(uint64(st.Runs.Failed))
	if st.Started != nil && st.Finished != nil {
		s.metrics.latency.observe(st.Finished.Sub(j.created).Seconds())
	}
}

// Drain gracefully shuts the server down: stop admitting (POST → 503,
// /healthz → draining), let every admitted job finish, then stop the
// executors. Returns early with ctx's error if the deadline passes
// first; admitted jobs keep running in that case and a second Drain
// call may await them again.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.admitted.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.workers.Wait()
	return nil
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Close abandons the server without waiting for queued work: admission
// stops and the execution context is cancelled, so queued simulations
// fail fast with cancellation errors. Tests and fatal-error paths use
// this; production shutdown should prefer Drain.
func (s *Server) Close() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
	s.cancel()
	s.stopOnce.Do(func() { close(s.stop) })
}
