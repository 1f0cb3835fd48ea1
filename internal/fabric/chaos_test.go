package fabric

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/oracle/gen"
)

// chaosSpecs derives a deterministic batch from the oracle's seeded
// case generator: synthetic shapes plus hardware knobs, exactly what a
// verification campaign would shard. Seeded so every failure replays.
func chaosSpecs(t *testing.T, seed uint64, n int) []experiments.Spec {
	t.Helper()
	var specs []experiments.Spec
	for i := 0; len(specs) < n && i < 4*n; i++ {
		cs := gen.New(seed + uint64(i)*0x9e3779b97f4a7c15).FanCase()
		if err := cs.Spec.Validate(); err != nil {
			continue
		}
		specs = append(specs, cs.Spec)
	}
	if len(specs) < n {
		t.Fatalf("generator yielded %d/%d valid specs", len(specs), n)
	}
	return specs
}

// TestWorkerDeathReLeasesMidJob is the chaos satellite: a worker is
// killed while holding a lease, mid-job. The coordinator must observe
// the transport failure, evict the worker, re-lease the shard to the
// survivor, and the merged per-spec outcomes must equal a local run
// byte-for-byte. Race-clean: run under -race.
func TestWorkerDeathReLeasesMidJob(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{
		DispatchTimeout: 30 * time.Second,
		ExpireAfter:     time.Minute, // presence stays fresh; death is observed via the broken lease
		MaxAttempts:     3,
		NoLocalFallback: true, // completion must come from the survivor, not a local bailout
	})

	// Victim: its first lease parks in the test's gate so we can kill
	// the "process" (close its connections) while the job is in flight.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	victim := NewWorker(WorkerOptions{ID: "w1", Slots: 1, RunWorkers: 1,
		hookRun: func(RunRequest) {
			once.Do(func() { close(entered) })
			<-release
		}})
	vts := httptest.NewServer(victim.Handler())
	victim.opts.Advertise = vts.URL
	if err := c.Register(RegisterRequest{Version: ProtocolVersion, ID: "w1", Addr: vts.URL, Slots: 1}); err != nil {
		t.Fatal(err)
	}

	survivor := NewWorker(WorkerOptions{ID: "w2", Slots: 1, RunWorkers: 1})
	startWorker(t, c, survivor)

	// Two specs: placement puts one on each worker (w1 sorts first,
	// then fills its single slot), so the victim is guaranteed to hold
	// a lease when it dies.
	specs := chaosSpecs(t, 0xC0FFEE, 2)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resCh := make(chan []experiments.SpecResult, 1)
	go func() { resCh <- c.RunSpecs(ctx, specs, RunOptions{}) }()

	<-entered // w1 is executing its shard
	// Kill the victim mid-job: every open connection — including the
	// one carrying the lease — drops, exactly like a SIGKILLed process.
	// The coordinator sees the broken lease immediately; the parked
	// handler is then released so its goroutine can unwind (its request
	// context is already cancelled) and the dead server can close.
	vts.CloseClientConnections()
	close(release)
	vts.Close()

	dist := <-resCh
	for i, r := range dist {
		if r.Err != nil {
			t.Fatalf("spec %d failed after re-lease: %v", i, r.Err)
		}
	}
	assertResultsEqual(t, localResults(t, specs), dist)

	if got := c.Metrics().Retries(); got < 1 {
		t.Fatalf("retries = %d, want >= 1 (the broken lease must re-dispatch)", got)
	}
	if got := c.Metrics().LocalFallbacks(); got != 0 {
		t.Fatalf("local fallbacks = %d, want 0 (the survivor must complete the job)", got)
	}
	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers = %d, want 1 (victim evicted)", got)
	}
	// The survivor ran both shards: its own and the re-leased one.
	if got := survivor.specsDone.Load(); got != 2 {
		t.Fatalf("survivor completed %d shards, want 2", got)
	}
}
