package main

import (
	"fmt"
	"time"

	"spamer"
	"spamer/internal/traffic"
	"spamer/internal/workloads"
)

// streamMessages is the delivered-message count of one stream round,
// the full case of BenchmarkMillionMessage.
const streamMessages = 1_000_000

// streamRound is one simulation of the stream workload.
type streamRound struct {
	res                 spamer.Result
	events              uint64
	build, runDt        time.Duration
	mallocs, bytes, gcs uint64
}

// runStream drives one open-loop simulation shaped like
// BenchmarkMillionMessage/sequential: a 2-stage chain (Lines 4, Window 8)
// paced by 16 Poisson users with MeanGap 400, under the tuned algorithm.
// The seed is the traffic seed. Set-up is NewSystem + Build; the timed
// work is System.Run, repeated until the budget is spent.
func runStream(cfg *config) (*report, error) {
	rep := newReport()
	n := streamMessages
	if cfg.tiny {
		n = 20_000
	}
	sh := workloads.Shape{
		Stages: 2, Messages: n, Lines: 4, Window: 8,
		Arrival: &traffic.Spec{Seed: cfg.seed, MeanGap: 400, Users: 16},
	}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	w := sh.Workload()
	sys := spamer.Config{Algorithm: spamer.AlgTuned, Deadline: 1 << 40}

	round := func(tr *tracer, i int) streamRound {
		label := fmt.Sprintf("round-%d", i)
		id := tr.begin("stream.round", 0, label, 1)
		defer tr.end(id)
		var r streamRound
		t := time.Now()
		b := tr.begin("spamer.build", id, label, 1)
		s := spamer.NewSystem(sys)
		w.Build(s, 1)
		tr.end(b)
		r.build = time.Since(t)
		r.mallocs, r.bytes, r.gcs = memDelta(func() {
			t = time.Now()
			run := tr.begin("sim.run", id, label, 1)
			r.res = s.Run()
			tr.end(run)
			r.runDt = time.Since(t)
		})
		r.events = s.Kernel().Executed()
		return r
	}

	var ticks uint64
	check := func(r streamRound) {
		rep.attempted += int64(n)
		switch {
		case r.res.Popped != uint64(n):
			fmt.Fprintf(cfg.out, "stream: delivered %d messages, want %d\n", r.res.Popped, n)
			rep.failed += int64(n)
		case ticks != 0 && r.res.Ticks != ticks:
			fmt.Fprintf(cfg.out, "stream: run took %d ticks, earlier runs %d\n", r.res.Ticks, ticks)
			rep.failed += int64(n)
		}
		if ticks == 0 {
			ticks = r.res.Ticks
		}
	}

	phase := func(tr *tracer) (walls, builds []float64, last streamRound) {
		deadline := time.Now().Add(phaseDur(cfg))
		for i := 0; i == 0 || (!cfg.tiny && time.Now().Before(deadline)); i++ {
			last = round(tr, i)
			check(last)
			walls = append(walls, last.runDt.Seconds())
			builds = append(builds, last.build.Seconds())
		}
		return
	}

	// Set-up is building the system; processes start only when it runs,
	// so an unrun system holds no goroutines.
	var setups []float64
	for i := 0; i < setupReps(cfg); i++ {
		t := time.Now()
		w.Build(spamer.NewSystem(sys), 1)
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.note("setup_s", "median of %d set-ups", len(setups))

	walls, builds, last := phase(nil)
	rep.set("wall_s", median(walls))
	rep.note("wall_s", "median of %d rounds of %d messages", len(walls), n)
	rep.set("sim_msgs_per_s", float64(n)/median(walls))
	fmt.Fprintf(cfg.out, "stream: %d messages in %d simulated ticks (%.1f cycles/msg)\n", n, ticks, float64(ticks)/float64(n))
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	twalls, tbuilds, last := phase(tr)
	walls, builds = append(walls, twalls...), append(builds, tbuilds...)
	r := last.res
	d := r.Device
	rep.set("sim.events", float64(last.events))
	rep.set("sim.ns_per_event", ratio(float64(last.runDt), float64(last.events)))
	rep.set("spamer.build_s", median(builds))
	rep.set("spamer.run_p50_s", median(walls))
	rep.setTail("spamer.run_tail_s", walls)
	rep.set("vl.push_nack_ratio", ratio(float64(d.PushNACKs), float64(d.PushAccepts+d.PushNACKs)))
	rep.set("vl.fetches", float64(d.Fetches))
	rep.set("core.spec_hit_ratio", ratio(float64(d.SpecHits), float64(d.SpecPushes)))
	rep.set("noc.packets", float64(r.Bus.TotalPackets()))
	rep.set("noc.utilization", r.BusUtilization)
	rep.set("mem.empty_ticks", float64(r.EmptyTicks))
	rep.set("go.mallocs_per_msg", float64(last.mallocs)/float64(n))
	rep.set("go.alloc_bytes_per_msg", float64(last.bytes)/float64(n))
	rep.set("go.gc_cycles", float64(last.gcs))
	return rep, finishTrace(cfg, rep, tr, median(twalls))
}
