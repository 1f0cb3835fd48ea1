package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spamer"
	simconfig "spamer/internal/config"
	"spamer/internal/experiments"
	"spamer/internal/fabric"
	"spamer/internal/harness"
	"spamer/internal/noc"
	"spamer/internal/service"
)

// jobTimeout bounds one job from submit to result; past it the job
// counts as failed.
const jobTimeout = 30 * time.Second

// serviceStack is one in-process deployment at spamer-serve's defaults:
// the service with a fabric coordinator behind an httptest server on
// loopback, and one fabric worker that registered over HTTP, so a cold
// job takes the real lease round trip.
type serviceStack struct {
	srv       *service.Server
	api, wrk  *httptest.Server
	worker    *fabric.Worker
	stopBeats context.CancelFunc
	announced chan error
	tr        atomic.Pointer[tracer] // set during a traced phase
}

func startStack() (*serviceStack, error) {
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{
		HeartbeatEvery:  2 * time.Second,
		DispatchTimeout: 10 * time.Minute,
		MaxAttempts:     3,
		StoreEntries:    4096,
	})
	st := &serviceStack{srv: service.New(service.Options{
		QueueDepth:   64,
		JobWorkers:   1,
		CacheEntries: 256,
		Fabric:       coord,
	})}
	st.api = httptest.NewServer(st.srv.Handler())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.api.Close()
		return nil, err
	}
	st.worker = fabric.NewWorker(fabric.WorkerOptions{
		ID:          "perfbench-worker",
		Coordinator: st.api.URL,
		Advertise:   "http://" + ln.Addr().String(),
		Slots:       1,
	})
	wh := st.worker.Handler()
	st.wrk = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := st.tr.Load()
		id := tr.begin("fabric.lease", 0, r.URL.Path, 9)
		wh.ServeHTTP(w, r)
		tr.end(id)
	}))
	st.wrk.Listener.Close()
	st.wrk.Listener = ln
	st.wrk.Start()

	ctx, cancel := context.WithCancel(context.Background())
	st.stopBeats = cancel
	st.announced = make(chan error, 1)
	go func() { st.announced <- st.worker.Announce(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); coord.LiveWorkers() < 1; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			st.stop()
			return nil, fmt.Errorf("service: fabric worker did not register")
		}
	}
	return st, nil
}

// stop drains the service and the worker and waits for every goroutine
// the stack started.
func (st *serviceStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// A drain that times out leaves nothing to undo: Close follows.
	_ = st.srv.Drain(ctx)
	st.srv.Close()
	_ = st.worker.Drain(ctx)
	st.stopBeats()
	<-st.announced
	st.api.Close()
	st.wrk.Close()
}

// jobResult is one job as a client saw it.
type jobResult struct {
	cold                    bool
	ok                      bool
	latency, submit         time.Duration
	queueWait, exec, notify time.Duration
	hasTimes                bool
	messages                uint64
}

// coldJob is a finished cold job a later hit may resubmit. It keeps
// digests, not outcomes, so the benchmark's own memory stays flat: served
// digests the outcome bytes as served, decoded their compact re-encoding.
type coldJob struct {
	spec            experiments.Spec
	hash            string
	served, decoded [sha256.Size]byte
}

// serviceLoad is the shared state of the closed-loop clients.
type serviceLoad struct {
	cfg    *config
	base   string
	client *http.Client
	pool   []experiments.Spec // bases of the cold variants, traces resolved
	next   atomic.Int64       // cold job sequence number

	mu   sync.Mutex
	done []coldJob // every finished cold job, in completion order
	rng  *rand.Rand
}

// hitWindow bounds how far back a hit reaches: the last hitWindow cold
// jobs, well inside the service's 256-entry result cache.
const hitWindow = 64

// coldSpec is the n-th cold job: a seeded small variant of a Table-2 or
// scenario spec — a new hop latency, a VL baseline plus one seeded SPAMeR
// algorithm, a reseeded DAG — with a unique label, so it misses both the
// service cache and the fabric store.
func (l *serviceLoad) coldSpec(n int64) experiments.Spec {
	r := rand.New(rand.NewSource(int64(l.cfg.seed)*1_000_003 + n))
	s := l.pool[n%int64(len(l.pool))]
	s.Label = fmt.Sprintf("cold-%d-%d", l.cfg.seed, n)
	s.HopLatency = uint64(16 + r.Intn(17))
	s.Algorithms = []string{spamer.AlgBaseline, spamer.Configs()[1+r.Intn(3)]}
	if s.Shape != nil && s.Shape.DAG != nil {
		sh, d := *s.Shape, *s.Shape.DAG
		d.Seed = uint64(r.Int63()) + 1
		sh.DAG = &d
		s.Shape = &sh
	}
	return s
}

// respell writes a spec as different JSON that canonicalizes to the same
// spec: keys in another order and every default spelled out.
func respell(s experiments.Spec) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	m := map[string]any{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber() // 64-bit seeds do not survive a float64
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	m["scale"] = 1
	m["repeat"] = 1
	m["devices"] = 1
	m["bus_channels"] = noc.DefaultChannels
	m["srd_entries"] = simconfig.SRDEntries
	return json.Marshal(m) // map keys marshal sorted, unlike the struct
}

// status is the part of a job status the clients read.
type status struct {
	ID       string          `json:"id"`
	SpecHash string          `json:"spec_hash"`
	State    string          `json:"state"`
	Cached   bool            `json:"cached"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Outcomes json.RawMessage `json:"outcomes"`
}

// doJob submits one job and waits for its result: a cache hit answers
// the POST itself; otherwise the client follows the job's SSE stream to
// its terminal frame and then reads the status.
func (l *serviceLoad) doJob(ctx context.Context, cold bool, lane int, tr *tracer) jobResult {
	var spec experiments.Spec
	var body []byte
	var want *coldJob
	var err error
	if !cold {
		l.mu.Lock()
		if n := len(l.done); n > 0 {
			w := l.done[n-1-l.rng.Intn(min(hitWindow, n))]
			want = &w
		}
		l.mu.Unlock()
		cold = want == nil // nothing to hit yet
	}
	res := jobResult{cold: cold}
	if cold {
		spec = l.coldSpec(l.next.Add(1))
		body, err = json.Marshal(spec)
	} else {
		spec = want.spec
		body, err = respell(spec)
	}
	if err != nil {
		return res
	}
	kind := "hit"
	if cold {
		kind = "cold"
	}
	job := tr.begin("service.job", 0, kind, lane)
	defer tr.end(job)
	if tr != nil {
		specs := []experiments.Spec{spec}
		if _, _, _, err := prepareSpecs(specs, tr, job); err != nil {
			return res
		}
	}

	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	t0 := time.Now()
	sub := tr.begin("service.submit", job, kind, lane)
	code, st, err := l.call(ctx, http.MethodPost, "/v1/jobs", body)
	tr.end(sub)
	res.submit = time.Since(t0)
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		fmt.Fprintf(l.cfg.out, "service: submit %s job: HTTP %d %v\n", kind, code, err)
		return res
	}
	if code == http.StatusAccepted {
		sse := tr.begin("service.events", job, st.ID, lane)
		arrived, err := l.awaitTerminal(ctx, st.ID)
		tr.end(sse)
		if err != nil {
			fmt.Fprintf(l.cfg.out, "service: job %s events: %v\n", st.ID, err)
			return res
		}
		get := tr.begin("service.status", job, st.ID, lane)
		code, st, err = l.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		tr.end(get)
		if err != nil || code != http.StatusOK {
			fmt.Fprintf(l.cfg.out, "service: job status: HTTP %d %v\n", code, err)
			return res
		}
		if st.Started != nil && st.Finished != nil {
			res.hasTimes = true
			res.queueWait = st.Started.Sub(st.Created)
			res.exec = st.Finished.Sub(*st.Started)
			res.notify = arrived.Sub(*st.Finished)
			// Server-side phases, inside the client's wait on the stream.
			tr.add("service.queue_wait", sse, st.ID, lane, st.Created, *st.Started)
			tr.add("service.exec", sse, st.ID, lane, *st.Started, *st.Finished)
		}
	}
	res.latency = time.Since(t0)
	if st.State != service.StateDone {
		fmt.Fprintf(l.cfg.out, "service: job %s ended %s\n", st.ID, st.State)
		return res
	}
	if cold {
		var outs []experiments.Outcome
		if err := json.Unmarshal(st.Outcomes, &outs); err != nil {
			return res
		}
		for _, o := range outs {
			res.messages += o.Messages
		}
		l.mu.Lock()
		l.done = append(l.done, coldJob{spec: spec, hash: st.SpecHash,
			served: sha256.Sum256(st.Outcomes), decoded: outcomeDigest(outs)})
		l.mu.Unlock()
	} else if st.SpecHash != want.hash || sha256.Sum256(st.Outcomes) != want.served {
		fmt.Fprintf(l.cfg.out, "service: hit %s differs from its cold answer\n", st.ID)
		return res
	}
	res.ok = true
	return res
}

// call performs one API request and decodes the job status it returns.
func (l *serviceLoad) call(ctx context.Context, method, path string, body []byte) (int, status, error) {
	var st status
	req, err := http.NewRequestWithContext(ctx, method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, st, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, st, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(data, &st)
	}
	return resp.StatusCode, st, err
}

// awaitTerminal follows a job's SSE stream until its done/failed frame
// and returns when that frame arrived.
func (l *serviceLoad) awaitTerminal(ctx context.Context, id string) (time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return time.Time{}, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); line == "event: done" || line == "event: failed" {
			return time.Now(), nil
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, err
	}
	return time.Time{}, fmt.Errorf("stream ended without a terminal frame")
}

// scrape reads the service's /metrics (which includes the fabric's) into
// name -> value, with label sets kept in the name.
func (l *serviceLoad) scrape() (map[string]float64, error) {
	resp, err := l.client.Get(l.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// serviceRound has every client run jobsPerClient jobs, alternating
// cold and hit, and returns when all have finished.
func (l *serviceLoad) round(jobsPerClient int, tr *tracer) []jobResult {
	out := make([][]jobResult, l.cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < l.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < jobsPerClient; k++ {
				out[c] = append(out[c], l.doJob(context.Background(), k%2 == 0, c+1, tr))
			}
		}(c)
	}
	wg.Wait()
	var all []jobResult
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// runService drives an in-process service with closed-loop clients.
// Each client alternates a cold job with a hit on a recent cold job; a
// round is jobsPerClient jobs per client. After the timed phase every
// cold answer is checked against a local RunSpecsParallel.
func runService(cfg *config) (*report, error) {
	rep := newReport()
	jobsPerClient := 8
	if cfg.tiny {
		jobsPerClient = 2
	}

	// Set-up: resolve the variant bases and bring the stack up, several
	// times; the last stack serves the timed phase.
	var setups []float64
	var st *serviceStack
	var pool []experiments.Spec
	for i := 0; i < setupReps(cfg); i++ {
		if st != nil {
			st.stop()
		}
		t := time.Now()
		scen, err := loadScenarios(cfg.root)
		if err != nil {
			return nil, err
		}
		pool = append([]experiments.Spec{{Benchmark: "bitonic"}}, scen...)
		if st, err = startStack(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer st.stop()
	rep.set("setup_s", median(setups))
	rep.note("setup_s", "median of %d set-ups", len(setups))

	l := &serviceLoad{
		cfg:    cfg,
		base:   st.api.URL,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * cfg.clients}},
		pool:   pool,
		rng:    rand.New(rand.NewSource(int64(cfg.seed))),
	}
	defer l.client.CloseIdleConnections()

	type phaseResult struct {
		walls, rates []float64 // per round: host seconds, cold messages per second
		jobs         []jobResult
	}
	phase := func(tr *tracer) phaseResult {
		st.tr.Store(tr)
		defer st.tr.Store(nil)
		var p phaseResult
		deadline := time.Now().Add(phaseDur(cfg))
		for i := 0; i == 0 || (!cfg.tiny && time.Now().Before(deadline)); i++ {
			t := time.Now()
			jobs := l.round(jobsPerClient, tr)
			wall := time.Since(t).Seconds()
			var msgs uint64
			for _, j := range jobs {
				msgs += j.messages
			}
			p.jobs = append(p.jobs, jobs...)
			p.walls = append(p.walls, wall)
			p.rates = append(p.rates, float64(msgs)/wall)
		}
		return p
	}

	untraced := phase(nil)
	jobs := untraced.jobs
	var cold, hit, submits, waits, execs, notifies []float64
	for _, j := range untraced.jobs {
		if !j.ok {
			continue
		}
		submits = append(submits, millis(j.submit))
		if !j.cold {
			hit = append(hit, millis(j.latency))
			continue
		}
		cold = append(cold, millis(j.latency))
		if j.hasTimes {
			waits = append(waits, millis(j.queueWait))
			execs = append(execs, millis(j.exec))
			notifies = append(notifies, millis(j.notify))
		}
	}
	rep.set("wall_s", median(untraced.walls))
	rep.note("wall_s", "median of %d rounds of %d jobs", len(untraced.walls), jobsPerClient*cfg.clients)
	rep.set("sim_msgs_per_s", median(untraced.rates))
	rep.set("jobs_per_s", float64(jobsPerClient*cfg.clients)/median(untraced.walls))
	rep.set("cold_p50_ms", median(cold))
	rep.note("cold_p50_ms", "n=%d", len(cold))
	rep.setTail("cold_tail_ms", cold)
	rep.set("hit_p50_ms", median(hit))
	rep.note("hit_p50_ms", "n=%d", len(hit))
	rep.setTail("hit_tail_ms", hit)
	rep.set("service.submit_ms", median(submits))
	rep.set("service.queue_wait_ms", median(waits))
	rep.set("service.exec_ms", median(execs))
	rep.set("service.notify_ms", median(notifies))

	var tr *tracer
	var traced phaseResult
	if cfg.trace {
		tr = newTracer()
		traced = phase(tr)
		jobs = append(jobs, traced.jobs...)
		var hashes, vals, compiles []float64
		for _, s := range tr.finished() {
			switch s.Name {
			case "experiments.hash":
				hashes = append(hashes, (s.End - s.Start).Seconds())
			case "experiments.validate":
				vals = append(vals, (s.End - s.Start).Seconds())
			case "dag.compile":
				compiles = append(compiles, (s.End - s.Start).Seconds())
			}
		}
		rep.set("experiments.hash_s", median(hashes))
		rep.set("experiments.validate_s", median(vals))
		rep.set("dag.compile_s", median(compiles))
	}

	m, err := l.scrape()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	hits, misses := m["spamer_serve_cache_hits_total"], m["spamer_serve_cache_misses_total"]
	rep.set("service.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("service.rejected", m[`spamer_serve_jobs_total{outcome="rejected"}`])
	rep.set("fabric.placements", m["spamer_fabric_placements_total"])
	rep.set("fabric.local_fallbacks", m["spamer_fabric_local_fallbacks_total"])
	rep.set("fabric.retries", m["spamer_fabric_retries_total"])
	sh, sm := m["spamer_fabric_store_hits_total"], m["spamer_fabric_store_misses_total"]
	rep.set("fabric.store_hit_ratio", ratio(sh, sh+sm))

	for _, j := range jobs {
		rep.attempted++
		if !j.ok {
			rep.failed++
		}
	}
	rep.failed += verifyCold(cfg, l.done)

	if tr != nil {
		return rep, finishTrace(cfg, rep, tr, median(traced.walls))
	}
	return rep, nil
}

// verifyCold recomputes every cold job locally with RunSpecsParallel and
// counts the answers that differ from the service's.
func verifyCold(cfg *config, done []coldJob) int64 {
	specs := make([]experiments.Spec, len(done))
	for i, j := range done {
		specs[i] = j.spec
	}
	local := experiments.RunSpecsParallel(context.Background(), specs, harness.Options{Workers: cfg.workers})
	var bad int64
	for i, j := range done {
		if local[i].Err != nil || outcomeDigest(local[i].Outcomes) != j.decoded {
			fmt.Fprintf(cfg.out, "service: cold job %s differs from the local run\n", j.spec.Label)
			bad++
		}
	}
	fmt.Fprintf(cfg.out, "service: %d cold answers checked against a local RunSpecsParallel, %d differ\n", len(done), bad)
	return bad
}

func outcomeDigest(outs []experiments.Outcome) [sha256.Size]byte {
	b, err := json.Marshal(outs)
	if err != nil {
		panic(err) // outcomes are plain data
	}
	return sha256.Sum256(b)
}
