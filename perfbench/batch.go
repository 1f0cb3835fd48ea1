package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// batchDigest pins the batch outcomes: SHA-256 of the JSON outcome list
// of batchSpecs in spec order. The seed only shuffles submission order,
// so every seed must reproduce it. A change to the simulated model
// changes it, and must say so.
const batchDigest = "8e62e9e89ec5380db43a927df3cbd8de0804bbf073b05d7d6479f5f5e5497377"

// figure8 lists the Table-2 benchmarks in Figure-8 order.
var figure8 = []string{"bitonic", "sweep", "ping-pong", "incast", "halo", "pipeline", "firewall", "FIR"}

// paperGeomean holds the paper's Figure-8 geomean speedups over VL.
var paperGeomean = map[string]float64{
	spamer.AlgZeroDelay: 1.45,
	spamer.AlgAdaptive:  1.25,
	spamer.AlgTuned:     1.33,
}

// loadBatchSpecs builds the batch: the Figure-8 matrix (each Table-2
// benchmark under all four algorithms) followed by the scenarios/ DAG
// specs with their replay traces resolved.
func loadBatchSpecs(root string) ([]experiments.Spec, error) {
	var specs []experiments.Spec
	for _, b := range figure8 {
		specs = append(specs, experiments.Spec{Benchmark: b, Algorithms: spamer.Configs()})
	}
	scen, err := loadScenarios(root)
	if err != nil {
		return nil, err
	}
	return append(specs, scen...), nil
}

// loadScenarios reads every scenarios/*.json spec, resolving replay
// files against the scenarios directory the way spamer-run does.
func loadScenarios(root string) ([]experiments.Spec, error) {
	dir := filepath.Join(root, "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario specs under %s", dir)
	}
	sort.Strings(files)
	var specs []experiments.Spec
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		s, err := experiments.ReadSpecs(r)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		specs = append(specs, s...)
	}
	if err := experiments.ResolveTraceFiles(specs, dir); err != nil {
		return nil, err
	}
	return specs, nil
}

// prepareSpecs is the per-batch preparation a client does before
// submitting: validate and content-address every spec, and compile each
// DAG onto a system. It returns the time each layer took.
func prepareSpecs(specs []experiments.Spec, tr *tracer, parent int) (validate, hash, compile time.Duration, err error) {
	t := time.Now()
	id := tr.begin("experiments.validate", parent, "", 0)
	for i := range specs {
		if err = specs[i].Validate(); err != nil {
			return
		}
	}
	tr.end(id)
	validate = time.Since(t)

	t = time.Now()
	id = tr.begin("experiments.hash", parent, "", 0)
	for i := range specs {
		_ = specs[i].Hash()
	}
	tr.end(id)
	hash = time.Since(t)

	t = time.Now()
	id = tr.begin("dag.compile", parent, "", 0)
	for i := range specs {
		if sh := specs[i].Shape; sh != nil && sh.DAG != nil {
			if err = sh.DAG.Validate(); err != nil {
				return
			}
			sh.DAG.Build(spamer.NewSystem(specs[i].SystemConfig(spamer.AlgBaseline)), 1)
		}
	}
	tr.end(id)
	compile = time.Since(t)
	return
}

// batchRun is one (spec, algorithm) simulation of a traced pass.
type batchRun struct {
	spec, alg    int
	res          spamer.Result
	events       uint64
	build, runDt time.Duration
}

func runBatch(cfg *config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(int64(cfg.seed)))

	// Set-up: load, validate, hash and compile the batch, several times.
	var specs []experiments.Spec
	var setups, vals, hashes, compiles []float64
	for i := 0; i < setupReps(cfg); i++ {
		t := time.Now()
		s, err := loadBatchSpecs(cfg.root)
		if err != nil {
			return nil, err
		}
		v, h, c, err := prepareSpecs(s, nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		vals, hashes, compiles = append(vals, v.Seconds()), append(hashes, h.Seconds()), append(compiles, c.Seconds())
		specs = s
	}
	rep.set("setup_s", median(setups))
	rep.note("setup_s", "median of %d", len(setups))
	rep.set("experiments.validate_s", median(vals))
	rep.set("experiments.hash_s", median(hashes))
	rep.set("dag.compile_s", median(compiles))

	runs := 0
	for i := range specs {
		runs += len(specs[i].Algorithms)
	}

	// Timed phase: shuffled passes through RunSpecsParallel.
	var walls, rates, waits, busy, stragglers []float64
	var ref [][]experiments.Outcome
	deadline := time.Now().Add(phaseDur(cfg))
	for pass := 0; pass == 0 || (!cfg.tiny && time.Now().Before(deadline)); pass++ {
		perm := rng.Perm(len(specs))
		shuffled := make([]experiments.Spec, len(specs))
		for i, p := range perm {
			shuffled[i] = specs[p]
		}
		var starts, finishes []float64
		t0 := time.Now()
		// harness serializes OnStart/OnProgress calls.
		res := experiments.RunSpecsParallel(context.Background(), shuffled, harness.Options{
			Workers:    cfg.workers,
			OnStart:    func(harness.Progress) { starts = append(starts, time.Since(t0).Seconds()) },
			OnProgress: func(harness.Progress) { finishes = append(finishes, time.Since(t0).Seconds()) },
		})
		wall := time.Since(t0)

		outs := make([][]experiments.Outcome, len(specs))
		ok := true
		for i, p := range perm {
			if res[i].Err != nil {
				fmt.Fprintf(cfg.out, "batch: spec %d: %v\n", p, res[i].Err)
				ok = false
			}
			outs[p] = res[i].Outcomes
		}
		if d := digest(outs); d != cfg.digest {
			fmt.Fprintf(cfg.out, "batch: pass %d outcome digest %s, want %s\n", pass, d, cfg.digest)
			ok = false
		}
		rep.attempted += int64(runs)
		if !ok {
			rep.failed += int64(runs)
		}
		if ref == nil {
			ref = outs
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(messages(outs))/wall.Seconds())
		waits = append(waits, median(starts))
		busy = append(busy, (sum(finishes)-sum(starts))/(float64(cfg.workers)*wall.Seconds()))
		sort.Float64s(finishes)
		stragglers = append(stragglers, wall.Seconds()-finishes[max(0, len(finishes)-cfg.workers)])
	}
	rep.set("wall_s", median(walls))
	rep.note("wall_s", "median of %d passes of %d runs", len(walls), runs)
	rep.set("sim_msgs_per_s", median(rates))
	rep.set("harness.queue_wait_s", median(waits))
	rep.set("harness.busy_ratio", median(busy))
	rep.set("harness.straggler_s", median(stragglers))
	figure8Report(cfg, rep, ref)

	if cfg.trace {
		if err := tracedBatch(cfg, rep, specs, ref, rng); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// figure8Report prints the simulated Figure-8 geomeans beside the
// paper's, with the error of each.
func figure8Report(cfg *config, rep *report, outs [][]experiments.Outcome) {
	fmt.Fprintln(cfg.out, "figure 8 geomean speedup over vl (simulated vs paper):")
	for _, alg := range []string{spamer.AlgZeroDelay, spamer.AlgAdaptive, spamer.AlgTuned} {
		var xs []float64
		for i := range figure8 {
			for _, o := range outs[i] {
				if o.Algorithm == alg {
					xs = append(xs, o.SpeedupOverVL)
				}
			}
		}
		g, p := geomean(xs), paperGeomean[alg]
		fmt.Fprintf(cfg.out, "  %-7s simulated %.3f  paper %.2f  error %+.1f%%\n", alg, g, p, 100*(g-p)/p)
		if alg == spamer.AlgTuned {
			rep.set("speedup_geomean_tuned", g)
		}
	}
}

// tracedBatch runs traced passes for the second half of the budget. Each
// (spec, algorithm) run is a harness.Run task that builds and runs its
// own system, so the kernel's event count and the per-layer spans are
// visible. Ticks and messages must equal the untraced outcomes.
func tracedBatch(cfg *config, rep *report, specs []experiments.Spec, ref [][]experiments.Outcome, rng *rand.Rand) error {
	tr := newTracer()
	type task struct{ spec, alg int }
	var walls, builds, runDts []float64
	var last []batchRun
	var mallocs, allocBytes, gcs uint64
	lanes := make(chan int, cfg.workers)
	for i := 1; i <= cfg.workers; i++ {
		lanes <- i
	}
	deadline := time.Now().Add(phaseDur(cfg))
	for pass := 0; pass == 0 || (!cfg.tiny && time.Now().Before(deadline)); pass++ {
		var order []task
		for _, s := range rng.Perm(len(specs)) {
			for a := range specs[s].Algorithms {
				order = append(order, task{s, a})
			}
		}
		root := tr.begin("batch.pass", 0, fmt.Sprintf("pass-%d", pass), 0)
		pool := tr.begin("harness.Run", root, "", 0)
		tasks := make([]harness.Task[batchRun], len(order))
		for k, tk := range order {
			tk := tk
			spec := &specs[tk.spec]
			alg := spec.Algorithms[tk.alg]
			label := fmt.Sprintf("%s/%s", specLabel(spec), alg)
			tasks[k] = harness.Task[batchRun]{Label: label, Run: func(ctx context.Context) (batchRun, error) {
				lane := <-lanes
				defer func() { lanes <- lane }()
				id := tr.begin("spamer.run", pool, label, lane)
				defer tr.end(id)
				w, _ := spec.Workload()
				t := time.Now()
				b := tr.begin("spamer.build", id, label, lane)
				sys := spamer.NewSystem(spec.SystemConfig(alg))
				w.Build(sys, max(spec.Scale, 1))
				tr.end(b)
				build := time.Since(t)
				t = time.Now()
				r := tr.begin("sim.run", id, label, lane)
				res := sys.Run()
				tr.end(r)
				return batchRun{spec: tk.spec, alg: tk.alg, res: res, events: sys.Kernel().Executed(), build: build, runDt: time.Since(t)}, nil
			}}
		}
		var outs []harness.Outcome[batchRun]
		t0 := time.Now()
		m, b, g := memDelta(func() {
			outs, _ = harness.Run(context.Background(), tasks, harness.Options{Workers: cfg.workers})
		})
		walls = append(walls, time.Since(t0).Seconds())
		tr.end(pool)
		tr.end(root)
		mallocs, allocBytes, gcs = m, b, g

		last = last[:0]
		for _, o := range outs {
			rep.attempted++
			r := o.Value
			if o.Err != nil || r.alg >= len(ref[r.spec]) ||
				r.res.Ticks != ref[r.spec][r.alg].Ticks || r.res.Pushed != ref[r.spec][r.alg].Messages {
				fmt.Fprintf(cfg.out, "batch traced: %s diverged from the untraced outcome (err %v)\n", o.Label, o.Err)
				rep.failed++
				continue
			}
			builds = append(builds, r.build.Seconds())
			runDts = append(runDts, r.runDt.Seconds())
			last = append(last, r)
		}
	}

	var events, msgs, pushes, nacks, fetches, specPushes, specHits, packets, empty uint64
	var runNS float64
	var util []float64
	for _, r := range last {
		events += r.events
		runNS += float64(r.runDt)
		msgs += r.res.Pushed
		d := r.res.Device
		pushes += d.PushAccepts + d.PushNACKs
		nacks += d.PushNACKs
		fetches += d.Fetches
		specPushes += d.SpecPushes
		specHits += d.SpecHits
		packets += r.res.Bus.TotalPackets()
		empty += r.res.EmptyTicks
		util = append(util, r.res.BusUtilization)
	}
	rep.set("sim.events", float64(events))
	rep.set("sim.ns_per_event", ratio(runNS, float64(events)))
	rep.set("spamer.build_s", median(builds))
	rep.set("spamer.run_p50_s", median(runDts))
	rep.setTail("spamer.run_tail_s", runDts)
	rep.set("vl.push_nack_ratio", ratio(float64(nacks), float64(pushes)))
	rep.set("vl.fetches", float64(fetches))
	rep.set("core.spec_hit_ratio", ratio(float64(specHits), float64(specPushes)))
	rep.set("noc.packets", float64(packets))
	rep.set("noc.utilization", sum(util)/float64(len(util)))
	rep.set("mem.empty_ticks", float64(empty))
	rep.set("go.mallocs_per_msg", ratio(float64(mallocs), float64(msgs)))
	rep.set("go.alloc_bytes_per_msg", ratio(float64(allocBytes), float64(msgs)))
	rep.set("go.gc_cycles", float64(gcs))
	for _, n := range []string{"sim.events", "vl.fetches", "noc.packets", "mem.empty_ticks", "go.gc_cycles"} {
		rep.note(n, "per pass")
	}
	return finishTrace(cfg, rep, tr, median(walls))
}

func specLabel(s *experiments.Spec) string {
	if s.Label != "" {
		return s.Label
	}
	return s.Benchmark
}

// digest content-addresses an outcome list.
func digest(outs [][]experiments.Outcome) string {
	b, err := json.Marshal(outs)
	if err != nil {
		panic(err) // outcomes are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func messages(outs [][]experiments.Outcome) uint64 {
	var n uint64
	for _, spec := range outs {
		for _, o := range spec {
			n += o.Messages
		}
	}
	return n
}
