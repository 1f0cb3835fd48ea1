// Package fabric is the distributed simulation tier: it turns the
// serving layer into a coordinator for a pool of worker processes so a
// job batch scales past one process's GOMAXPROCS (ROADMAP item 1 —
// horizontal scale-out in the spirit of parti-gem5's partitioned
// simulation, with the worker pool itself treated as an M:N
// multi-producer/multi-consumer message system).
//
// Topology (docs/FABRIC.md):
//
//	client ── POST /v1/jobs ──▶ coordinator (spamer serve)
//	                               │  shard by canonical spec hash,
//	                               │  queue-depth-aware placement,
//	                               │  lease + bounded retry
//	                               ├──▶ worker 1 (spamer worker)
//	                               ├──▶ worker 2
//	                               └──▶ …   each runs
//	                                    experiments.RunSpecsParallel
//
// Three properties define the tier:
//
//   - Sharding by content address. The shard unit is one spec — all of
//     its algorithms together, so the SpeedupOverVL baseline
//     normalization is computed where the runs are — keyed by the
//     spec's canonical hash (experiments.Spec.Hash). The coordinator's
//     content-addressed Store is shared: any worker's completed spec is
//     a cache hit for every subsequent client, whatever job it arrives
//     in.
//
//   - Presence and leases. Workers register, heartbeat, and advertise
//     capacity (GOMAXPROCS, slots, live queue depth). A dispatch is a
//     lease bounded by the coordinator's dispatch timeout; a worker
//     that dies mid-job (connection error) or goes silent past the
//     presence deadline loses its leases, and each lease is re-placed
//     on a surviving worker at most MaxAttempts times before the
//     coordinator falls back to running the spec locally.
//
//   - Determinism. The simulator is deterministic and Outcome JSON
//     round-trips losslessly, so a distributed run's per-spec Outcomes
//     are byte-identical to a local run. internal/oracle's
//     distributed-vs-local differential mode (`spamer verify -workers N`)
//     enforces exactly that, and `make fabric-smoke` proves it across
//     real processes — including one injected worker death.
//
// The wire protocol is versioned JSON over HTTP; both sides reject a
// version they do not speak, so a mixed-version pool fails loudly
// instead of corrupting results.
package fabric

import (
	"fmt"

	"spamer/internal/experiments"
)

// ProtocolVersion is the fabric wire-protocol version. Coordinator and
// workers must agree exactly; bump it on any incompatible change to the
// request/response shapes below.
const ProtocolVersion = 1

// RegisterRequest announces a worker to the coordinator.
// POST {coordinator}/v1/fabric/register
type RegisterRequest struct {
	Version int    `json:"version"`
	ID      string `json:"id"`   // stable worker identity (host-pid by default)
	Addr    string `json:"addr"` // base URL the coordinator dials, e.g. http://10.0.0.7:9090
	// MaxProcs is the worker's GOMAXPROCS — advertised capacity,
	// exported in metrics.
	MaxProcs int `json:"max_procs"`
	// Slots bounds the spec shards the worker executes concurrently;
	// the coordinator never keeps more than Slots leases outstanding on
	// one worker, and the worker itself rejects excess with 503.
	Slots int `json:"slots"`
}

// RegisterResponse acknowledges a registration and tells the worker the
// heartbeat cadence the coordinator expects.
type RegisterResponse struct {
	Version     int    `json:"version"`
	OK          bool   `json:"ok"`
	Error       string `json:"error,omitempty"`
	HeartbeatMS int64  `json:"heartbeat_ms"` // heartbeat period, milliseconds
}

// Heartbeat refreshes a worker's presence and reports live load.
// POST {coordinator}/v1/fabric/heartbeat
type Heartbeat struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	// Active is the worker's current queue depth (spec shards
	// executing); placement prefers the lowest Active + outstanding
	// leases.
	Active int `json:"active"`
	// Draining marks a worker that received SIGTERM: it finishes
	// in-flight leases but must receive no new ones.
	Draining bool `json:"draining,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. Registered is false when
// the coordinator does not know the worker (e.g. it restarted); the
// worker must re-register.
type HeartbeatResponse struct {
	Version    int  `json:"version"`
	Registered bool `json:"registered"`
}

// RunRequest leases a spec batch to a worker.
// POST {worker}/v1/run
type RunRequest struct {
	Version int `json:"version"`
	// Lease identifies the dispatch for logs and diagnostics; the
	// coordinator generates it, the worker echoes it back.
	Lease string `json:"lease,omitempty"`
	// Specs is the shard — in practice a single spec, the sharding
	// unit, but the shape is a batch so the protocol does not need a
	// version bump to coarsen shards later.
	Specs []experiments.Spec `json:"specs"`
}

// WireResult is one spec's slot of a RunResponse: the JSON form of
// experiments.SpecResult, with the error flattened to a string.
type WireResult struct {
	Index    int                   `json:"index"`
	Outcomes []experiments.Outcome `json:"outcomes,omitempty"`
	Err      string                `json:"error,omitempty"`
}

// RunResponse reports a completed lease. A per-spec Err is a
// deterministic simulation failure (the spec itself is bad or its run
// panicked) — re-dispatching it elsewhere would fail identically, so
// the coordinator surfaces it instead of retrying; transport-level
// failures are what trigger re-leasing.
type RunResponse struct {
	Version int          `json:"version"`
	Worker  string       `json:"worker"`
	Lease   string       `json:"lease,omitempty"`
	Results []WireResult `json:"results"`
}

// errorBody is the JSON error envelope both sides use for non-200s.
type errorBody struct {
	Error string `json:"error"`
}

// checkVersion validates a peer's protocol version.
func checkVersion(v int) error {
	if v != ProtocolVersion {
		return fmt.Errorf("fabric: protocol version %d, want %d", v, ProtocolVersion)
	}
	return nil
}
