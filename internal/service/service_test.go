package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spamer/internal/fabric"
)

// fastSpec is a sub-second single simulation; fastSpecReordered is the
// same spec with permuted JSON keys and every default spelled out —
// byte-different, semantically identical, same canonical hash.
const (
	fastSpec          = `{"benchmark":"ping-pong","algorithms":["vl"],"label":"t"}`
	fastSpecReordered = `{"label":"t","scale":1,"hop_latency":12,"bus_channels":4,"devices":1,"algorithms":["vl"],"benchmark":"ping-pong"}`
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %v", id, st.Errors)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return Status{}
}

func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestSubmitCompleteFetch: the basic lifecycle — 202 on admission, the
// job reaches done through the default coordinator, outcomes are
// fetchable and well-formed.
func TestSubmitCompleteFetch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, st := submit(t, ts, fastSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.SpecHash == "" || st.State == "" {
		t.Fatalf("admission status: %+v", st)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if len(final.Outcomes) != 1 {
		t.Fatalf("outcomes: %+v", final.Outcomes)
	}
	o := final.Outcomes[0]
	if o.Benchmark != "ping-pong" || o.Algorithm != "vl" || o.Ticks == 0 || o.Label != "t" {
		t.Fatalf("outcome: %+v", o)
	}
	if final.Runs.Done != 1 || final.Runs.Total != 1 || final.Runs.Failed != 0 {
		t.Fatalf("run progress: %+v", final.Runs)
	}
	// With no worker attached, the default coordinator ran the spec in
	// this process.
	m := metricsBody(t, ts)
	for _, want := range []string{
		"spamer_fabric_local_fallbacks_total 1",
		"spamer_fabric_placements_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestCacheHitOnSemanticallyIdenticalSpec: a byte-different spelling of
// an already-served spec returns 200 immediately with the cached
// outcomes, and the cache-hit counter moves.
func TestCacheHitOnSemanticallyIdenticalSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, st := submit(t, ts, fastSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	first := waitState(t, ts, st.ID, StateDone)

	code, st2 := submit(t, ts, fastSpecReordered)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (cache hit)", code)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmit status: %+v", st2)
	}
	if st2.SpecHash != first.SpecHash {
		t.Fatalf("hash mismatch: %s vs %s", st2.SpecHash, first.SpecHash)
	}
	if len(st2.Outcomes) != 1 || st2.Outcomes[0].Ticks != first.Outcomes[0].Ticks {
		t.Fatalf("cached outcomes differ: %+v vs %+v", st2.Outcomes, first.Outcomes)
	}

	m := metricsBody(t, ts)
	for _, want := range []string{
		"spamer_serve_cache_hits_total 1",
		"spamer_serve_cache_misses_total 1",
		`spamer_serve_jobs_total{outcome="done"} 1`,
		"spamer_serve_job_duration_seconds_count 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestColdJobFinishedBeforeReplyIs202: a cold job that completes
// before its submit reply is written is still answered 202, not
// reported as a cache hit.
func TestColdJobFinishedBeforeReplyIs202(t *testing.T) {
	_, ts := newTestServer(t, Options{hookSubmitted: func(j *job) { <-j.doneCh }})
	code, st := submit(t, ts, fastSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (cold job)", code)
	}
	if st.Cached || st.State != StateDone {
		t.Fatalf("status: %+v (want done, not cached)", st)
	}
	code, st = submit(t, ts, fastSpecReordered)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("resubmit = %d cached=%v, want 200 cache hit", code, st.Cached)
	}
}

// TestFinishedJobDropsSpecs: a terminal job, cold or cached, no longer
// holds its parsed specs; only the executor reads them.
func TestFinishedJobDropsSpecs(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	_, cold := submit(t, ts, fastSpec)
	waitState(t, ts, cold.ID, StateDone)
	code, hit := submit(t, ts, fastSpecReordered)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (cache hit)", code)
	}
	for _, id := range []string{cold.ID, hit.ID} {
		j, ok := srv.lookup(id)
		if !ok {
			t.Fatalf("job %s not registered", id)
		}
		j.mu.Lock()
		specs := j.specs
		j.mu.Unlock()
		if specs != nil {
			t.Errorf("job %s still holds %d specs", id, len(specs))
		}
	}
}

// TestQueueFullReturns429: with one gated executor and a depth-1
// queue, the third submission is shed with 429 + Retry-After, and the
// rejection is counted.
func TestQueueFullReturns429(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Options{
		QueueDepth:  1,
		JobWorkers:  1,
		hookRunning: func(*job) { <-gate },
	})
	defer close(gate)
	_ = srv

	_, st := submit(t, ts, fastSpec)
	waitState(t, ts, st.ID, StateRunning) // executor holds it at the gate

	// Distinct specs so neither hits the cache or dedupes.
	code, _ := submit(t, ts, `{"benchmark":"firewall","algorithms":["vl"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"halo","algorithms":["vl"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if m := metricsBody(t, ts); !strings.Contains(m, `spamer_serve_jobs_total{outcome="rejected"} 1`) {
		t.Errorf("rejection not counted:\n%s", m)
	}
}

// TestQueueFullRetryAfterOneSecond: a 429 tells the client to back off
// for one second — never "Retry-After: 0", which would make saturated
// clients retry at once and amplify the overload the 429 sheds.
func TestQueueFullRetryAfterOneSecond(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Options{
		QueueDepth:  1,
		JobWorkers:  1,
		hookRunning: func(*job) { <-gate },
	})
	defer close(gate)

	_, st := submit(t, ts, fastSpec)
	waitState(t, ts, st.ID, StateRunning)
	code, _ := submit(t, ts, `{"benchmark":"firewall","algorithms":["vl"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"halo","algorithms":["vl"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q", ra, "1")
	}
}

// TestDrainCompletesInFlight: Drain stops admission immediately (503,
// healthz flips) but lets the gated in-flight job finish.
func TestDrainCompletesInFlight(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Options{hookRunning: func(*job) { <-gate }})

	_, st := submit(t, ts, fastSpec)
	waitState(t, ts, st.ID, StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	if code, _ := submit(t, ts, `{"benchmark":"halo"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
		}
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if final := getStatus(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("in-flight job not completed by drain: %+v", final)
	}
}

// TestRegistryEvictsPastActiveJob: a job still running does not pin the
// finished jobs registered after it (cache hits are born done). They are
// evicted oldest first down to maxJobs, and the active job stays.
func TestRegistryEvictsPastActiveJob(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	srv.register(newJob("active", "h", nil, 1))
	const extra = 20
	for i := 0; i < maxJobs+extra; i++ {
		j := newJob(fmt.Sprintf("done-%d", i), "h", nil, 1)
		j.completeCached(nil)
		srv.register(j)
	}
	if len(srv.jobs) != maxJobs || len(srv.order) != maxJobs {
		t.Fatalf("registry holds %d jobs (%d in order), want %d", len(srv.jobs), len(srv.order), maxJobs)
	}
	if _, ok := srv.lookup("active"); !ok || srv.order[0] != "active" {
		t.Fatalf("active job evicted or moved (order starts %q)", srv.order[0])
	}
	// active plus maxJobs-1 finished jobs: the oldest extra+1 went.
	if _, ok := srv.lookup(fmt.Sprintf("done-%d", extra)); ok {
		t.Errorf("done-%d survived eviction", extra)
	}
	if _, ok := srv.lookup(fmt.Sprintf("done-%d", extra+1)); !ok {
		t.Errorf("done-%d evicted, want it kept", extra+1)
	}
}

// TestEventsStream: the SSE stream opens with a snapshot, carries one
// run_done frame per spec, labelled with the spec and counting its
// simulations, and ends with exactly one terminal done frame.
func TestEventsStream(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Options{hookRunning: func(*job) { <-gate }})

	_, st := submit(t, ts, fastSpec)
	waitState(t, ts, st.ID, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(gate)
	body, err := io.ReadAll(resp.Body) // stream closes at the terminal frame
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	if !strings.Contains(s, "event: running") {
		t.Errorf("missing snapshot frame:\n%s", s)
	}
	var runDone []Event
	for _, frame := range strings.Split(s, "\n\n") {
		if data, ok := strings.CutPrefix(frame, "event: run_done\ndata: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			runDone = append(runDone, ev)
		}
	}
	// fastSpec is one spec of one algorithm.
	if len(runDone) != 1 || runDone[0].Label != "t" || runDone[0].Done != 1 || runDone[0].Failed != 0 {
		t.Errorf("run_done frames = %+v, want one for spec \"t\" with done 1:\n%s", runDone, s)
	}
	if n := strings.Count(s, "event: done"); n != 1 {
		t.Errorf("terminal frames = %d, want 1:\n%s", n, s)
	}

	// A stream opened after completion replays just the terminal frame.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), "event: done") {
		t.Errorf("replay missing terminal frame:\n%s", body2)
	}
}

// TestBadRequests: malformed JSON, invalid specs, unknown jobs and a
// malformed worker registration map to 400/404 without touching the
// queue.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		"not json",
		`{"benchmark":"no-such-benchmark"}`,
		`{"benchmark":"FIR","algorithms":["bogus"]}`,
		`[]`,
		`{"benchmark":"allreduce"}`, // extended workload without opt-in
	} {
		if code, _ := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit(%q) = %d, want 400", body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	// The default server mounts the coordinator's worker protocol: a
	// malformed registration is refused, not an unknown route.
	resp, err = http.Post(ts.URL+"/v1/fabric/register", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad register body = %d, want 400", resp.StatusCode)
	}
}

// TestMultiSpecJobKeepsOrder: a spec-array job concatenates outcomes
// in spec order, exactly as `spamer run` would.
func TestMultiSpecJobKeepsOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{Fabric: fabric.NewCoordinator(fabric.CoordinatorOptions{LocalWorkers: 4})})
	body := `[{"benchmark":"firewall","algorithms":["vl","tuned"]},{"benchmark":"ping-pong","algorithms":["vl"]}]`
	code, st := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if len(final.Outcomes) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(final.Outcomes))
	}
	got := []string{
		final.Outcomes[0].Benchmark + "/" + final.Outcomes[0].Algorithm,
		final.Outcomes[1].Benchmark + "/" + final.Outcomes[1].Algorithm,
		final.Outcomes[2].Benchmark + "/" + final.Outcomes[2].Algorithm,
	}
	want := []string{"firewall/vl", "firewall/tuned", "ping-pong/vl"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
	if final.Outcomes[1].SpeedupOverVL <= 1 {
		t.Fatalf("speedup normalization lost: %+v", final.Outcomes[1])
	}
}

// fastSpecHash is fastSpec's canonical hash, recorded before the
// parallel kernel and its "domains" field were removed: the retired
// field never entered a sequential spec's canonical JSON, so the cache
// key of every sequential spec must not move.
const fastSpecHash = "8f214ba20fef133419875efdba548688796470d8295c253a24f36998cb59d1de"

// TestRejectRetiredDomains: a job asking for the removed multi-domain
// kernel gets a 400 that names the removal instead of silently running
// on the sequential kernel (whose ticks differ), while an explicit
// "domains": 0 is the plain sequential spec under its unchanged hash.
func TestRejectRetiredDomains(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"ping-pong","algorithms":["vl"],"label":"t","domains":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "parallel simulation kernel was removed") {
		t.Fatalf("domains=2 submit = %d %s, want 400 naming the removed kernel", resp.StatusCode, body)
	}

	code, st := submit(t, ts, `{"benchmark":"ping-pong","algorithms":["vl"],"label":"t","domains":0}`)
	if code != http.StatusAccepted {
		t.Fatalf("domains=0 submit = %d, want 202", code)
	}
	if st.SpecHash != fastSpecHash {
		t.Fatalf("sequential spec hash = %s, want %s", st.SpecHash, fastSpecHash)
	}
	waitState(t, ts, st.ID, StateDone)
}

// TestOpenLoopShapeSpecServed: an anonymous open-loop shape spec runs
// through the service tier end-to-end, and a byte-different default
// spelling of the same shape is answered from the result cache — the
// canonical hash collapses shape and arrival default spellings.
func TestOpenLoopShapeSpecServed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	shapeSpec := `{"shape":{"stages":2,"messages":60,
		"arrival":{"process":"poisson","seed":9,"mean_gap":40,"users":1}},
		"algorithms":["vl"]}`
	code, st := submit(t, ts, shapeSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if len(final.Outcomes) != 1 {
		t.Fatalf("outcomes: %+v", final.Outcomes)
	}
	if o := final.Outcomes[0]; !strings.HasPrefix(o.Benchmark, "synthetic/chain-s2-m60-ol:poisson") {
		t.Fatalf("outcome benchmark %q does not carry the shape name", o.Benchmark)
	}
	// Same shape, default spellings omitted and benchmark spelled out.
	respelled := `{"benchmark":"synthetic","algorithms":["vl"],
		"shape":{"stages":2,"messages":60,"arrival":{"seed":9,"mean_gap":40}}}`
	code, st2 := submit(t, ts, respelled)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (cache hit)", code)
	}
	if !st2.Cached || st2.SpecHash != final.SpecHash {
		t.Fatalf("resubmit status: %+v (want cached, hash %s)", st2, final.SpecHash)
	}
}

// dagSpec is a small DAG-scenario job: a replayed source feeding one
// consumer, VL only, fast enough for the test executor.
const dagSpec = `[{"label":"d","algorithms":["vl"],"shape":{"dag":{
  "name":"svc","stages":[
    {"name":"in","replicas":1,"replay":[{"at":5,"work":3},{"at":9},{"at":20,"size":2}],"work_per_byte":4},
    {"name":"out","replicas":1}],
  "edges":[{"from":"in","to":"out"}]}}}]`

// dagSpecRespelled is the same simulation spelled differently: the
// auto edge policy made explicit, default lines/window/dist spelled
// out, and a dead seed added. It must canonicalize — and content-hash
// — identically to dagSpec.
const dagSpecRespelled = `[{"label":"d","algorithms":["vl"],"shape":{"dag":{
  "name":"svc","seed":77,"stages":[
    {"name":"in","replicas":1,"replay":[{"at":5,"work":3},{"at":9},{"at":20,"size":2}],"work_per_byte":4,"work":{"kind":"const"}},
    {"name":"out","replicas":1}],
  "edges":[{"from":"in","to":"out","policy":"pair","lines":2,"window":4}]}}}]`

// TestDAGSpecServedAndCached: a DAG scenario flows through the service
// unchanged — admitted, simulated, reported under its diagnostic name —
// and the result cache keys on the canonical hash of the resolved DAG,
// so a respelled-but-identical spec is a cache hit.
func TestDAGSpecServedAndCached(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, st := submit(t, ts, dagSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	first := waitState(t, ts, st.ID, StateDone)
	if len(first.Outcomes) != 1 {
		t.Fatalf("outcomes: %+v", first.Outcomes)
	}
	if o := first.Outcomes[0]; o.Benchmark != "dag/svc-s2-t2" || o.Messages != 3 || o.Ticks == 0 {
		t.Fatalf("outcome: %+v", o)
	}

	code, st2 := submit(t, ts, dagSpecRespelled)
	if code != http.StatusOK {
		t.Fatalf("respelled resubmit = %d, want 200 (cache hit)", code)
	}
	if !st2.Cached || st2.SpecHash != first.SpecHash {
		t.Fatalf("respelled spec missed the cache: %+v vs hash %s", st2, first.SpecHash)
	}

	// An unresolved replay file must be rejected at admission — the
	// service never touches the filesystem on behalf of a spec, and an
	// unresolved reference could alias different traces in the cache.
	code, _ = submit(t, ts, `[{"algorithms":["vl"],"shape":{"dag":{
	  "name":"svc","stages":[
	    {"name":"in","replicas":1,"replay_file":"trace.json"},
	    {"name":"out","replicas":1}],
	  "edges":[{"from":"in","to":"out"}]}}}]`)
	if code != http.StatusBadRequest {
		t.Fatalf("unresolved replay file admitted with %d, want 400", code)
	}
}
