package experiments

import (
	"context"
	"testing"

	"spamer"
	"spamer/internal/harness"
)

func TestPredictorStudySanity(t *testing.T) {
	rows, err := PredictorStudyParallel(context.Background(), 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := PredictorNames()
	if len(names) != 7 {
		t.Fatalf("predictors = %d", len(names))
	}
	for _, r := range rows {
		for _, n := range names {
			sp, ok := r.Speedups[n]
			if !ok {
				t.Fatalf("%s missing %s", r.Benchmark, n)
			}
			// No implemented predictor should be pathologically bad: a
			// liveness or self-locking bug shows up as <0.5x.
			if sp < 0.5 || sp > 5 {
				t.Errorf("%s/%s speedup %v out of sane range", r.Benchmark, n, sp)
			}
		}
	}
}

// The sweeps of spamer ablate: each sets one Config field to x.
var (
	setSRDEntries  = func(c *spamer.Config, n int) { c.SRDEntries = n }
	setHopLatency  = func(c *spamer.Config, h int) { c.HopLatency = uint64(h) }
	setBusChannels = func(c *spamer.Config, n int) { c.BusChannels = n }
	setDevices     = func(c *spamer.Config, n int) { c.Devices = n }
)

func TestSweepsRunAndValidate(t *testing.T) {
	ctx, opts := context.Background(), harness.Options{}
	if _, err := SweepParallel(ctx, "nope", spamer.AlgTuned, []int{8}, setSRDEntries, 1, opts); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	pts, err := SweepParallel(ctx, "firewall", spamer.AlgTuned, []int{8, 64}, setSRDEntries, 1, opts)
	if err != nil || len(pts) != 2 {
		t.Fatalf("srd sweep: %v %v", pts, err)
	}
	for _, p := range pts {
		if p.Speedup <= 0 || p.Ticks == 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	hp, err := SweepParallel(ctx, "ping-pong", spamer.AlgZeroDelay, []int{6, 24}, setHopLatency, 1, opts)
	if err != nil || len(hp) != 2 {
		t.Fatalf("hop sweep: %v %v", hp, err)
	}
	// Larger hop latency means a slower system in absolute terms.
	if hp[1].Ticks <= hp[0].Ticks {
		t.Errorf("hop 24 not slower than hop 6: %d vs %d", hp[1].Ticks, hp[0].Ticks)
	}
	ch, err := SweepParallel(ctx, "halo", spamer.AlgZeroDelay, []int{1, 4}, setBusChannels, 1, opts)
	if err != nil || len(ch) != 2 {
		t.Fatalf("channels sweep: %v %v", ch, err)
	}
	if ch[0].Ticks <= ch[1].Ticks {
		t.Errorf("1-channel halo not slower than 4-channel: %d vs %d", ch[0].Ticks, ch[1].Ticks)
	}
	dv, err := SweepParallel(ctx, "firewall", spamer.AlgZeroDelay, []int{1, 2}, setDevices, 1, opts)
	if err != nil || len(dv) != 2 {
		t.Fatalf("devices sweep: %v %v", dv, err)
	}
}

func TestObfuscationStudyBounded(t *testing.T) {
	rows, err := ObfuscationStudyParallel(context.Background(), 32, 1, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Overhead < -0.05 {
			t.Errorf("%s: obfuscation sped things up by %.1f%%?", r.Benchmark, -r.Overhead*100)
		}
		if r.Overhead > 0.5 {
			t.Errorf("%s: obfuscation overhead %.1f%% implausibly high", r.Benchmark, r.Overhead*100)
		}
	}
}

// TestSoftwareQueueStudy: the app-level comparison preserves the
// Figure 1 ordering — coherent software queues slowest, then VL, then
// SPAMeR fastest or tied.
func TestSoftwareQueueStudy(t *testing.T) {
	rows, err := SoftwareQueueStudyParallel(context.Background(), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.SWTicks > r.VLTicks) {
			t.Errorf("%s: software queue (%d) not slower than VL (%d)", r.Workload, r.SWTicks, r.VLTicks)
		}
		if r.SpTicks > r.VLTicks {
			t.Errorf("%s: SPAMeR (%d) slower than VL (%d)", r.Workload, r.SpTicks, r.VLTicks)
		}
		if r.VLOverSW < 1.0 || r.SpOverSW < r.VLOverSW {
			t.Errorf("%s: speedups inconsistent: VL %.2f, SPAMeR %.2f", r.Workload, r.VLOverSW, r.SpOverSW)
		}
	}
}
