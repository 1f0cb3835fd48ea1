package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
	"spamer/internal/workloads"
)

// fastSpecs is a small deterministic batch: three sub-second specs with
// distinct labels (distinct content addresses).
func fastSpecs(t *testing.T) []experiments.Spec {
	t.Helper()
	specs, err := experiments.ReadSpecs(strings.NewReader(`[
		{"benchmark":"ping-pong","algorithms":["vl"],"label":"f-a"},
		{"benchmark":"ping-pong","algorithms":["vl","0delay"],"label":"f-b"},
		{"benchmark":"incast","algorithms":["vl"],"label":"f-c"}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// coordServer mounts a coordinator the way internal/service does:
// its wire protocol under /v1/fabric/.
func coordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/fabric/", http.StripPrefix("/v1/fabric", c.Handler()))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// startWorker serves a worker over httptest and registers it directly
// with the coordinator (tests control heartbeats explicitly).
func startWorker(t *testing.T, c *Coordinator, w *Worker) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	w.opts.Advertise = ts.URL
	if err := c.Register(RegisterRequest{
		Version: ProtocolVersion, ID: w.opts.ID, Addr: ts.URL, Slots: w.opts.Slots,
	}); err != nil {
		t.Fatal(err)
	}
	return ts
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// localResults is the sequential reference the distributed runs must
// reproduce byte-for-byte.
func localResults(t *testing.T, specs []experiments.Spec) []experiments.SpecResult {
	t.Helper()
	return experiments.RunSpecsParallel(context.Background(), specs, harness.Options{Workers: 1})
}

func assertResultsEqual(t *testing.T, local, dist []experiments.SpecResult) {
	t.Helper()
	if len(local) != len(dist) {
		t.Fatalf("result count %d != %d", len(dist), len(local))
	}
	for i := range local {
		if (local[i].Err == nil) != (dist[i].Err == nil) {
			t.Fatalf("spec %d: err mismatch: local=%v dist=%v", i, local[i].Err, dist[i].Err)
		}
		if local[i].Err != nil && local[i].Err.Error() != dist[i].Err.Error() {
			t.Fatalf("spec %d: error text must be verbatim: local=%q dist=%q", i, local[i].Err, dist[i].Err)
		}
		l, d := mustJSON(t, local[i].Outcomes), mustJSON(t, dist[i].Outcomes)
		if l != d {
			t.Fatalf("spec %d outcomes diverge:\nlocal: %s\ndist:  %s", i, l, d)
		}
	}
}

// TestRegisterHeartbeatPresence covers the wire protocol end to end:
// registration over HTTP, heartbeat refresh, unknown-worker heartbeats
// demanding re-registration, and presence expiry of silent workers.
func TestRegisterHeartbeatPresence(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		HeartbeatEvery: 20 * time.Millisecond,
		ExpireAfter:    80 * time.Millisecond,
	})
	ts := coordServer(t, c)

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	// An older worker still sends max_procs; the coordinator ignores it.
	code, body := post("/v1/fabric/register", `{"version":2,"id":"w1","addr":"http://127.0.0.1:1","max_procs":4,"slots":2}`)
	if code != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("register = %d %s", code, body)
	}
	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", got)
	}

	// Wrong protocol version is rejected loudly.
	code, body = post("/v1/fabric/register", `{"version":99,"id":"w2","addr":"http://127.0.0.1:1"}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "protocol version") {
		t.Fatalf("bad-version register = %d %s", code, body)
	}

	// Heartbeat for an unknown worker demands re-registration.
	code, body = post("/v1/fabric/heartbeat", `{"version":2,"id":"ghost"}`)
	if code != http.StatusOK || !strings.Contains(body, `"registered":false`) {
		t.Fatalf("ghost heartbeat = %d %s", code, body)
	}
	code, body = post("/v1/fabric/heartbeat", `{"version":2,"id":"w1","active":1}`)
	if code != http.StatusOK || !strings.Contains(body, `"registered":true`) {
		t.Fatalf("w1 heartbeat = %d %s", code, body)
	}

	// Silence past ExpireAfter reaps the worker.
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var sb strings.Builder
	c.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "spamer_fabric_worker_deaths_total 1") {
		t.Fatalf("metrics missing death count:\n%s", sb.String())
	}
}

// TestDistributedMatchesLocal: a batch sharded across two live workers
// produces per-spec outcomes byte-identical to a sequential local run,
// and a repeated batch is answered entirely from the shared store.
func TestDistributedMatchesLocal(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		DispatchTimeout: 30 * time.Second,
		NoLocalFallback: true, // any fallback would mask a placement bug
	})
	w1 := NewWorker(WorkerOptions{ID: "w1", Slots: 2, RunWorkers: 1})
	w2 := NewWorker(WorkerOptions{ID: "w2", Slots: 2, RunWorkers: 1})
	startWorker(t, c, w1)
	startWorker(t, c, w2)

	specs := fastSpecs(t)
	dist := c.RunSpecs(context.Background(), specs, RunOptions{})
	assertResultsEqual(t, localResults(t, specs), dist)
	if got := c.Metrics().Placements(); got != 3 {
		t.Fatalf("placements = %d, want 3", got)
	}

	// Same batch again: three store hits, no new placements.
	again := c.RunSpecs(context.Background(), specs, RunOptions{})
	assertResultsEqual(t, localResults(t, specs), again)
	if got := c.Metrics().Placements(); got != 3 {
		t.Fatalf("placements after replay = %d, want 3 (store must answer)", got)
	}
	var sb strings.Builder
	c.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "spamer_fabric_store_hits_total 3") {
		t.Fatalf("metrics missing store hits:\n%s", sb.String())
	}
}

// TestSingleflightDedup: concurrent submissions of the same spec
// dispatch once; the rest wait for the leader and read the store.
func TestSingleflightDedup(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		DispatchTimeout: 30 * time.Second,
		NoLocalFallback: true,
	})
	w := NewWorker(WorkerOptions{ID: "w1", Slots: 1, RunWorkers: 1})
	startWorker(t, c, w)

	spec := fastSpecs(t)[:1]
	var wg sync.WaitGroup
	results := make([][]experiments.SpecResult, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.RunSpecs(context.Background(), spec, RunOptions{})
		}(i)
	}
	wg.Wait()
	local := localResults(t, spec)
	for i := range results {
		assertResultsEqual(t, local, results[i])
	}
	if got := c.Metrics().Placements(); got != 1 {
		t.Fatalf("placements = %d, want 1 (singleflight)", got)
	}
}

// TestLocalFallbackWhenPoolEmpty: with no workers, RunSpecs degrades to
// the exact single-process path.
func TestLocalFallbackWhenPoolEmpty(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LocalWorkers: 1})
	specs := fastSpecs(t)
	dist := c.RunSpecs(context.Background(), specs, RunOptions{})
	assertResultsEqual(t, localResults(t, specs), dist)
	if got := c.Metrics().LocalFallbacks(); got != 3 {
		t.Fatalf("local fallbacks = %d, want 3", got)
	}
}

// TestSpecFailureIsFinal: a deterministic simulation failure reported
// by a worker must surface as the spec's error without re-dispatch —
// retrying a broken spec elsewhere would fail identically.
func TestSpecFailureIsFinal(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		DispatchTimeout: 30 * time.Second,
		NoLocalFallback: true,
	})
	w := NewWorker(WorkerOptions{ID: "w1", Slots: 1, RunWorkers: 1})
	startWorker(t, c, w)

	specs, err := experiments.ReadSpecs(strings.NewReader(
		`{"benchmark":"ping-pong","algorithms":["vl"],"fault":{"drop_stash":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunSpecs(context.Background(), specs, RunOptions{})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "deadlock") {
		t.Fatalf("want structured deadlock error, got %v", res[0].Err)
	}
	if got := c.Metrics().Retries(); got != 0 {
		t.Fatalf("retries = %d, want 0 (spec failures are final)", got)
	}
	if got := c.Metrics().Placements(); got != 1 {
		t.Fatalf("placements = %d, want 1", got)
	}
}

// TestWorkerDrainFlipsHealthzAndSheds: the satellite drain contract on
// the worker agent — /healthz answers 503 the moment drain begins (so
// the coordinator and load balancers stop routing), new leases bounce
// with the draining marker, and a draining heartbeat removes the
// worker from placement.
func TestWorkerDrainFlipsHealthzAndSheds(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LocalWorkers: 1})
	w := NewWorker(WorkerOptions{ID: "w1", Slots: 1, RunWorkers: 1})
	ts := startWorker(t, c, w)

	get := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", got)
	}
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", got)
	}

	// A lease bounced with the draining marker leaves placement
	// immediately; the pool is then empty and the spec falls back to a
	// local run instead of failing the job.
	specs := fastSpecs(t)[:1]
	res := c.RunSpecs(context.Background(), specs, RunOptions{})
	assertResultsEqual(t, localResults(t, specs), res)
	if got := c.Metrics().LocalFallbacks(); got != 1 {
		t.Fatalf("local fallbacks = %d, want 1", got)
	}
	if got := c.LiveWorkers(); got != 0 {
		t.Fatalf("LiveWorkers after draining bounce = %d, want 0", got)
	}
}

// TestAnnounceRegistersAndReRegisters: the worker's announce loop
// registers over the wire, keeps presence fresh, and re-registers when
// the coordinator forgets it (restart).
func TestAnnounceRegistersAndReRegisters(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		HeartbeatEvery: 20 * time.Millisecond,
		ExpireAfter:    10 * time.Second,
	})
	cts := coordServer(t, c)

	w := NewWorker(WorkerOptions{ID: "w1", Coordinator: cts.URL, Slots: 1})
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(wts.Close)
	w.opts.Advertise = wts.URL

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Announce(ctx) }()

	waitLive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.LiveWorkers() != want {
			if time.Now().After(deadline) {
				t.Fatalf("LiveWorkers never reached %d", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitLive(1)

	// Simulate a coordinator restart: forget every worker. The next
	// heartbeat answers registered=false and the worker re-registers.
	c.mu.Lock()
	c.workers = map[string]*workerState{}
	c.mu.Unlock()
	waitLive(1)

	cancel()
	<-done
}

// TestCancelledWaiterReportsFailure: a spec whose singleflight wait
// ends with its context fires OnSpecDone as a failed spec with no
// runs, like every other way a spec can end.
func TestCancelledWaiterReportsFailure(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		DispatchTimeout: 30 * time.Second,
		NoLocalFallback: true,
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	w := NewWorker(WorkerOptions{ID: "w1", Slots: 1, RunWorkers: 1,
		hookRun: func(RunRequest) {
			close(entered)
			<-release
		}})
	startWorker(t, c, w)

	spec := fastSpecs(t)[:1]
	lead := make(chan []experiments.SpecResult, 1)
	go func() { lead <- c.RunSpecs(context.Background(), spec, RunOptions{}) }()
	<-entered // the leader's lease holds the spec's singleflight slot

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var hooks, runs, fails int
	res := c.RunSpecs(ctx, spec, RunOptions{OnSpecDone: func(_ string, n int, failed bool) {
		hooks++
		runs += n
		if failed {
			fails++
		}
	}})
	close(release)
	if r := <-lead; r[0].Err != nil {
		t.Fatalf("leader: %v", r[0].Err)
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", res[0].Err)
	}
	if hooks != 1 || runs != 0 || fails != 1 {
		t.Fatalf("OnSpecDone fired %d times with %d runs and %d failures, want once, 0 runs, 1 failure", hooks, runs, fails)
	}
}

// failingSpec deadlocks under both of its algorithms: the routing
// device drops its first stash delivery.
const failingSpec = `{"benchmark":"ping-pong","algorithms":["vl","0delay"],"fault":{"drop_stash":1}}`

// TestRunShardDropsPartialOutcomes: FIR cancelled after its first run
// keeps that run in RunSpecsParallel's slot, but the shared runner —
// which worker leases and the local fallback both call — returns the
// same error and no outcomes, so neither path reports simulations the
// result does not carry.
func TestRunShardDropsPartialOutcomes(t *testing.T) {
	spec := experiments.Spec{Benchmark: "FIR"} // all four algorithms
	cancelAfterFirst := func() (context.Context, harness.Options) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, harness.Options{Workers: 1, OnProgress: func(harness.Progress) { cancel() }}
	}

	ctx, opts := cancelAfterFirst()
	r := experiments.RunSpecsParallel(ctx, []experiments.Spec{spec}, opts)[0]
	if r.Err == nil || len(r.Outcomes) != 1 {
		t.Fatalf("RunSpecsParallel: err %v with %d outcomes, want an error and the 1 finished run", r.Err, len(r.Outcomes))
	}

	ctx, opts = cancelAfterFirst()
	outs, err := runShard(ctx, spec, opts)
	if !errors.Is(err, context.Canceled) || outs != nil {
		t.Fatalf("runShard: err %v with %d outcomes, want context.Canceled and none", err, len(outs))
	}
	if err.Error() != r.Err.Error() {
		t.Fatalf("runShard error %q, RunSpecsParallel error %q", err, r.Err)
	}
}

// TestRunSpecsBoundsGoroutines: a 1,000-spec job holds at most
// maxInFlight spec goroutines at once. With no worker, each in-flight
// spec runs in the local fallback on a pool of one, so it may hold a
// second goroutine (the harness worker); the slack covers those, plus
// spec goroutines that released their slot and have not exited yet.
func TestRunSpecsBoundsGoroutines(t *testing.T) {
	const n = 1000
	specs := make([]experiments.Spec, n)
	for i := range specs {
		specs[i] = experiments.Spec{
			Shape:      &workloads.Shape{Stages: 2, Messages: 1},
			Algorithms: []string{"vl"},
			Label:      fmt.Sprintf("g%d", i), // distinct content addresses
		}
	}
	c := NewCoordinator(CoordinatorOptions{LocalWorkers: 1})
	base := runtime.NumGoroutine()
	var mu sync.Mutex
	peak := 0
	res := c.RunSpecs(context.Background(), specs, RunOptions{OnSpecStart: func(string) {
		g := runtime.NumGoroutine()
		mu.Lock()
		peak = max(peak, g)
		mu.Unlock()
	}})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("spec %d: %v", i, r.Err)
		}
	}
	const slack = maxInFlight + 16
	if limit := base + maxInFlight + slack; peak > limit {
		t.Fatalf("peak %d goroutines during a %d-spec job, want <= %d (%d before it + maxInFlight %d + slack %d)",
			peak, n, limit, base, maxInFlight, slack)
	}
}

// TestWorkerMetricsCountOnlyReturnedRuns: a worker leased one passing
// and one failing spec counts one spec and the passing spec's
// simulations on /metrics, and answers the failing lease with its
// error and no outcomes.
func TestWorkerMetricsCountOnlyReturnedRuns(t *testing.T) {
	w := NewWorker(WorkerOptions{ID: "w1", Slots: 1, RunWorkers: 1})
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)

	lease := func(spec string) map[string]json.RawMessage {
		t.Helper()
		body := fmt.Sprintf(`{"version":%d,"lease":"l1","spec":%s}`, ProtocolVersion, spec)
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("lease %s: HTTP %d, %v", spec, resp.StatusCode, err)
		}
		return rr
	}
	ok := lease(`{"benchmark":"ping-pong","algorithms":["vl","0delay"],"label":"ok"}`)
	var outs []experiments.Outcome
	if err := json.Unmarshal(ok["outcomes"], &outs); err != nil || len(outs) != 2 || ok["error"] != nil {
		t.Fatalf("passing lease: %d outcomes, error %s (%v)", len(outs), ok["error"], err)
	}
	bad := lease(failingSpec)
	if bad["error"] == nil || bad["outcomes"] != nil {
		t.Fatalf("failing lease must carry an error and no outcomes: error %s, outcomes %s", bad["error"], bad["outcomes"])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"spamer_worker_specs_total 1\n", "spamer_worker_runs_total 2\n"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("worker metrics missing %q:\n%s", strings.TrimSpace(want), m)
		}
	}
}
