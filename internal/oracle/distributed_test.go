package oracle

import (
	"strings"
	"testing"

	"spamer"
	"spamer/internal/experiments"
	"spamer/internal/oracle/gen"
	"spamer/internal/workloads"
)

// TestDistributedCheckerAgreesOnSeededCases: the distributed-vs-local
// differential must pass on a sample of generator output — both chain
// shapes and named-benchmark cases.
func TestDistributedCheckerAgreesOnSeededCases(t *testing.T) {
	dc, err := NewDistributedChecker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	checked := 0
	for i := 0; i < 8; i++ {
		seed := caseSeed(0xD15C0, i)
		cs := gen.New(seed).Case()
		cs.Seed = seed
		vs, runs := dc.Check(cs)
		if runs == 0 {
			continue // invalid case; CheckCase owns reporting those
		}
		checked++
		if len(vs) > 0 {
			t.Fatalf("seed %#x diverged: %s", seed, vs[0])
		}
	}
	if checked < 4 {
		t.Fatalf("only %d/8 seeded cases were checkable", checked)
	}
}

// TestDistributedCheckerAgreesOnFaultedCase: a fault-injected spec
// deadlocks deterministically; the worker-reported error must match the
// local error text, not register as a divergence.
func TestDistributedCheckerAgreesOnFaultedCase(t *testing.T) {
	dc, err := NewDistributedChecker(1)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	cs := gen.Case{Spec: experiments.Spec{
		Benchmark:  "synthetic",
		Shape:      &workloads.Shape{Stages: 3, Messages: 40},
		Algorithms: []string{spamer.AlgBaseline, spamer.AlgTuned},
		Fault:      &experiments.FaultSpec{DropStash: 1},
	}}
	vs, runs := dc.Check(cs)
	if runs == 0 {
		t.Fatal("faulted case was skipped as invalid")
	}
	if len(vs) > 0 {
		t.Fatalf("matching errors reported as divergence: %s", vs[0])
	}
}

// TestCampaignWithWorkers: a small end-to-end campaign with the
// distributed differential on completes with zero failures and logs
// the pool size.
func TestCampaignWithWorkers(t *testing.T) {
	var log strings.Builder
	res, err := Campaign(CampaignOptions{
		Seed:     3,
		N:        4,
		ReproDir: t.TempDir(),
		Workers:  2,
		Log:      &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("campaign failures: %+v", res.Failures)
	}
	if res.Cases != 4 {
		t.Fatalf("cases = %d, want 4", res.Cases)
	}
	if !strings.Contains(log.String(), "distributed differential on, 2 workers") {
		t.Fatalf("campaign log missing differential banner:\n%s", log.String())
	}
}
