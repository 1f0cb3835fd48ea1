package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"spamer/internal/fabric"
	"spamer/internal/service"
)

// serveCmd runs the simulation-as-a-service daemon: a long-lived HTTP
// server that executes experiments.Spec jobs (the JSON `spamer run`
// reads), with bounded admission (429 + Retry-After under overload), a
// content-addressed result cache, live SSE progress, and Prometheus
// metrics. See docs/SERVICE.md for the API.
//
// Every job runs through the coordinator of the distributed simulation
// fabric (docs/FABRIC.md): `spamer worker` processes register under
// /v1/fabric/, jobs shard by canonical spec hash onto the pool with
// queue-depth-aware placement and lease-based retry, and a shared
// content-addressed result store makes any worker's completed spec a
// cache hit for every client. With no worker attached, the
// coordinator's local fallback runs each spec in this process on
// -parallel simulations, each bounded by -run-timeout.
//
// SIGTERM/SIGINT triggers a graceful drain: admission stops, every
// admitted job finishes (bounded by -drain-timeout), then the process
// exits.
func serveCmd(c *cli) error {
	addr := c.flags.String("addr", ":8080", "listen address")
	queue := c.flags.Int("queue", 64, "admission queue depth (full queue returns 429)")
	jobs := c.flags.Int("jobs", 1, "jobs executed concurrently")
	c.addParallel("simulations per spec run concurrently by the local fallback (0 = GOMAXPROCS)")
	cacheEntries := c.flags.Int("cache", 256, "result cache entries (negative disables)")
	runTimeout := c.flags.Duration("run-timeout", 0, "per-simulation timeout in the local fallback (0 = none)")
	drainTimeout := c.flags.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	fabricHeartbeat := c.flags.Duration("fabric-heartbeat", 2*time.Second, "heartbeat cadence told to workers")
	fabricExpire := c.flags.Duration("fabric-expire", 0, "presence deadline for silent workers (0 = 3x heartbeat)")
	fabricDispatch := c.flags.Duration("fabric-dispatch-timeout", 10*time.Minute, "lease bound for one dispatched spec shard")
	fabricAttempts := c.flags.Int("fabric-attempts", 3, "re-dispatches per spec before local fallback")
	fabricStore := c.flags.Int("fabric-store", 4096, "shared per-spec result store entries (negative disables)")
	if err := c.parse(); err != nil {
		return err
	}

	srv := service.New(service.Options{
		QueueDepth:   *queue,
		JobWorkers:   *jobs,
		CacheEntries: *cacheEntries,
		Fabric: fabric.NewCoordinator(fabric.CoordinatorOptions{
			HeartbeatEvery:  *fabricHeartbeat,
			ExpireAfter:     *fabricExpire,
			DispatchTimeout: *fabricDispatch,
			MaxAttempts:     *fabricAttempts,
			StoreEntries:    *fabricStore,
			LocalWorkers:    c.workers,
			RunTimeout:      *runTimeout,
		}),
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	fmt.Fprintf(c.stderr, "%s: listening on %s (queue=%d jobs=%d)\n", c.name, *addr, *queue, *jobs)
	return c.serveUntilSignal(hs, *drainTimeout, "admitted jobs", func(ctx context.Context) error {
		err := srv.Drain(ctx)
		if err != nil {
			srv.Close()
		}
		return err
	})
}

// workerCmd is the fabric worker agent: it registers with a
// `spamer serve` coordinator, heartbeats its presence and queue depth,
// and executes leased spec shards via the exact local runner
// (experiments.RunSpecsParallel), so a distributed run's per-spec
// outcomes are byte-identical to a local one. See docs/FABRIC.md.
//
// SIGTERM/SIGINT triggers a graceful drain: /healthz flips to 503 and a
// draining heartbeat tells the coordinator to stop placing leases here,
// in-flight leases finish (bounded by -drain-timeout), then the process
// exits.
func workerCmd(c *cli) error {
	coordinator := c.flags.String("coordinator", "", "coordinator base URL (required), e.g. http://coord:8080")
	addr := c.flags.String("addr", ":9090", "listen address")
	advertise := c.flags.String("advertise", "", "base URL the coordinator dials back (default http://<hostname>:<port> from -addr)")
	id := c.flags.String("id", "", "stable worker identity (default <hostname>-<pid>)")
	slots := c.flags.Int("slots", 1, "spec shards executed concurrently (excess leases bounce with 503)")
	c.addParallel("simulations per shard run concurrently (0 = GOMAXPROCS)")
	runTimeout := c.flags.Duration("run-timeout", 0, "per-simulation timeout (0 = none)")
	drainTimeout := c.flags.Duration("drain-timeout", 30*time.Second, "max wait for in-flight leases on shutdown")
	if err := c.parse(); err != nil {
		return err
	}

	if *coordinator == "" {
		return usagef("-coordinator is required")
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	if *id == "" {
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *advertise == "" {
		_, port, err := net.SplitHostPort(*addr)
		if err != nil {
			return usagef("cannot derive -advertise from -addr %q: %v", *addr, err)
		}
		*advertise = fmt.Sprintf("http://%s:%s", host, port)
	}

	w := fabric.NewWorker(fabric.WorkerOptions{
		ID:          *id,
		Coordinator: *coordinator,
		Advertise:   *advertise,
		Slots:       *slots,
		RunWorkers:  c.workers,
		RunTimeout:  *runTimeout,
		Log:         c.stderr,
	})
	hs := &http.Server{Addr: *addr, Handler: w.Handler()}
	fmt.Fprintf(c.stderr, "%s: %s listening on %s, advertising %s\n", c.name, *id, *addr, *advertise)

	announceCtx, stopAnnounce := context.WithCancel(context.Background())
	defer stopAnnounce()
	go w.Announce(announceCtx)
	return c.serveUntilSignal(hs, *drainTimeout, "leases", func(ctx context.Context) error {
		err := w.Drain(ctx)
		stopAnnounce() // the final heartbeat goes out carrying Draining=true
		return err
	})
}
