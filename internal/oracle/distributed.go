package oracle

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/fabric"
	"spamer/internal/harness"
	"spamer/internal/oracle/gen"
)

// DistributedChecker is the distributed-vs-local differential mode: a
// real fabric coordinator plus N worker processes-in-miniature, each
// serving the wire protocol over its own loopback listener. Check runs
// a generated case's spec once through coordinator sharding and once
// through the in-process path, and demands byte-identical outcomes —
// the fabric's merge gate (docs/FABRIC.md). HTTP transport, JSON
// round-trips, placement, and result merging are all on the hot path
// being checked; only the process boundary is elided.
type DistributedChecker struct {
	coord   *fabric.Coordinator
	servers []*http.Server
}

// NewDistributedChecker starts workers loopback HTTP workers and a
// coordinator that shards onto them with local fallback disabled, so a
// placement bug cannot silently hide behind in-process execution.
func NewDistributedChecker(workers int) (*DistributedChecker, error) {
	if workers <= 0 {
		workers = 2
	}
	d := &DistributedChecker{
		coord: fabric.NewCoordinator(fabric.CoordinatorOptions{
			DispatchTimeout: 10 * time.Minute,
			ExpireAfter:     time.Hour, // presence is static for the campaign's lifetime
			NoLocalFallback: true,
		}),
	}
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("oracle-w%d", i+1)
		w := fabric.NewWorker(fabric.WorkerOptions{ID: id, Slots: 2, RunWorkers: 1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("oracle: distributed worker listener: %w", err)
		}
		hs := &http.Server{Handler: w.Handler()}
		go hs.Serve(ln)
		d.servers = append(d.servers, hs)
		if err := d.coord.Register(fabric.RegisterRequest{
			Version: fabric.ProtocolVersion,
			ID:      id,
			Addr:    "http://" + ln.Addr().String(),
			Slots:   2,
		}); err != nil {
			d.Close()
			return nil, fmt.Errorf("oracle: registering %s: %w", id, err)
		}
	}
	return d, nil
}

// Workers reports the pool size.
func (d *DistributedChecker) Workers() int { return len(d.servers) }

// Close tears the worker pool down.
func (d *DistributedChecker) Close() {
	for _, hs := range d.servers {
		hs.Close()
	}
	d.servers = nil
}

// Check runs the case's spec through the fabric and through the local
// parallel runner and compares: error texts must agree, and on success
// the outcome lists must be byte-identical under JSON marshaling (Go
// floats marshal shortest-round-trip, so this is exact, not
// approximate). Returns the violations; empty means equivalent. The
// second return value is the number of simulation passes spent.
func (d *DistributedChecker) Check(cs gen.Case) ([]Violation, int) {
	if err := cs.Spec.Validate(); err != nil {
		// CheckCase already reports invalid cases; nothing to diff.
		return nil, 0
	}
	specs := []experiments.Spec{cs.Spec}
	ctx := context.Background()

	dist := d.coord.RunSpecs(ctx, specs, fabric.RunOptions{})
	local := experiments.RunSpecsParallel(ctx, specs, harness.Options{Workers: 1})
	runs := 2

	violation := func(detail string) []Violation {
		return []Violation{{Invariant: "distributed-divergence", Context: "workers=" + fmt.Sprint(len(d.servers)), Detail: detail}}
	}
	dr, lr := dist[0], local[0]
	switch {
	case (dr.Err == nil) != (lr.Err == nil):
		return violation(fmt.Sprintf("error mismatch: distributed=%v local=%v", dr.Err, lr.Err)), runs
	case dr.Err != nil:
		if dr.Err.Error() != lr.Err.Error() {
			return violation(fmt.Sprintf("error text mismatch: distributed=%q local=%q", dr.Err, lr.Err)), runs
		}
		return nil, runs
	}
	dj, err := json.Marshal(dr.Outcomes)
	if err != nil {
		return violation(fmt.Sprintf("marshal distributed outcomes: %v", err)), runs
	}
	lj, err := json.Marshal(lr.Outcomes)
	if err != nil {
		return violation(fmt.Sprintf("marshal local outcomes: %v", err)), runs
	}
	if string(dj) != string(lj) {
		return violation(fmt.Sprintf("outcomes not byte-identical:\ndistributed: %s\nlocal:       %s", dj, lj)), runs
	}
	return nil, runs
}
