package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spamer/internal/fabric"
)

// fabricServer builds a service whose executor shards onto a fabric
// coordinator with one registered httptest worker.
func fabricServer(t *testing.T) (*fabric.Coordinator, *httptest.Server) {
	t.Helper()
	coord := fabric.NewCoordinator(fabric.CoordinatorOptions{
		DispatchTimeout: 30 * time.Second,
		NoLocalFallback: true, // outcomes must come from the worker
	})
	w := fabric.NewWorker(fabric.WorkerOptions{ID: "svc-w1", Slots: 2, RunWorkers: 1})
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(wts.Close)
	if err := coord.Register(fabric.RegisterRequest{
		Version: fabric.ProtocolVersion, ID: "svc-w1", Addr: wts.URL, Slots: 2,
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Fabric: coord})
	return coord, ts
}

// TestFabricJobMatchesLocal: a job executed on a worker returns the
// same outcomes as the default server's local fallback, the per-spec
// store counts the work, and /metrics exposes the fabric family.
func TestFabricJobMatchesLocal(t *testing.T) {
	_, localTS := newTestServer(t, Options{})
	coord, fabricTS := fabricServer(t)

	batch := `[` + fastSpec + `,{"benchmark":"ping-pong","algorithms":["vl","0delay"],"label":"fx"}]`

	code, st := submit(t, localTS, batch)
	if code != http.StatusAccepted {
		t.Fatalf("local submit = %d", code)
	}
	local := waitState(t, localTS, st.ID, StateDone)

	code, st = submit(t, fabricTS, batch)
	if code != http.StatusAccepted {
		t.Fatalf("fabric submit = %d", code)
	}
	dist := waitState(t, fabricTS, st.ID, StateDone)

	lj, _ := json.Marshal(local.Outcomes)
	dj, _ := json.Marshal(dist.Outcomes)
	if string(lj) != string(dj) {
		t.Fatalf("outcomes diverge:\nlocal: %s\ndist:  %s", lj, dj)
	}
	if dist.Runs.Done != local.Runs.Done {
		t.Fatalf("runs done %d != %d", dist.Runs.Done, local.Runs.Done)
	}
	if got := coord.Metrics().Placements(); got != 2 {
		t.Fatalf("placements = %d, want 2 (one per spec shard)", got)
	}

	m := metricsBody(t, fabricTS)
	for _, want := range []string{
		"spamer_fabric_workers_present 1",
		"spamer_fabric_placements_total 2",
		`spamer_fabric_worker_specs_total{worker="svc-w1"} 2`,
		"spamer_fabric_store_entries 2",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFabricStoreAnswersRecombinedJobs: the per-spec store serves a
// never-seen job composed of already-seen specs without any new
// placement — the "any worker's completed spec is a cache hit for
// every client" contract.
func TestFabricStoreAnswersRecombinedJobs(t *testing.T) {
	coord, ts := fabricServer(t)

	a := `{"benchmark":"ping-pong","algorithms":["vl"],"label":"ra"}`
	b := `{"benchmark":"ping-pong","algorithms":["vl"],"label":"rb"}`
	for _, body := range []string{`[` + a + `]`, `[` + b + `]`} {
		code, st := submit(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d", code)
		}
		waitState(t, ts, st.ID, StateDone)
	}
	if got := coord.Metrics().Placements(); got != 2 {
		t.Fatalf("placements = %d, want 2", got)
	}

	// [a, b] is a new job hash (service cache miss) but both specs are
	// in the store: zero additional placements.
	code, st := submit(t, ts, `[`+a+`,`+b+`]`)
	if code != http.StatusAccepted {
		t.Fatalf("combined submit = %d", code)
	}
	if st.Cached {
		t.Fatalf("combined job claims a service-cache hit; want a fresh job answered by the store")
	}
	final := waitState(t, ts, st.ID, StateDone)
	if len(final.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(final.Outcomes))
	}
	if got := coord.Metrics().Placements(); got != 2 {
		t.Fatalf("placements after recombination = %d, want 2 (store must answer)", got)
	}
}

// TestHealthzDrainBody pins the drain-state satellite on the service
// side: the instant drain begins — before in-flight jobs finish —
// /healthz must answer 503 with status "draining" so load balancers
// and fabric coordinators stop routing here.
func TestHealthzDrainBody(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Options{hookRunning: func(*job) { <-gate }})
	defer close(gate)

	code, _ := submit(t, ts, fastSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	drainCtx, cancelDrain := context.WithCancel(context.Background())
	defer cancelDrain()
	go srv.Drain(drainCtx)
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "draining" {
		t.Fatalf("healthz status = %q, want \"draining\"", body.Status)
	}
}
