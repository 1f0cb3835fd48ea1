package experiments

import (
	"context"
	"testing"

	"spamer/internal/config"
	"spamer/internal/harness"
)

func TestTuneUnknownBenchmark(t *testing.T) {
	if _, err := Tune(context.Background(), "nope", 1, 1, harness.Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestNeighboursMutateEveryParameter(t *testing.T) {
	p := config.DefaultTuned()
	nb := neighbours(p)
	if len(nb) < 8 {
		t.Fatalf("neighbours = %d", len(nb))
	}
	varied := map[string]bool{}
	for _, q := range nb {
		if q == p {
			t.Fatalf("neighbour equals origin: %v", q)
		}
		if q.Zeta != p.Zeta {
			varied["zeta"] = true
		}
		if q.Tau != p.Tau {
			varied["tau"] = true
		}
		if q.Delta != p.Delta {
			varied["delta"] = true
		}
		if q.Alpha != p.Alpha {
			varied["alpha"] = true
		}
		if q.Beta != p.Beta {
			varied["beta"] = true
		}
	}
	for _, k := range []string{"zeta", "tau", "delta", "alpha", "beta"} {
		if !varied[k] {
			t.Errorf("no neighbour varies %s", k)
		}
	}
}

func TestNeighboursFloorParameters(t *testing.T) {
	p := config.TunedParams{Zeta: 8, Tau: 8, Delta: 8, Alpha: 1, Beta: 1}
	for _, q := range neighbours(p) {
		if q.Zeta < 8 || q.Tau < 8 || q.Delta < 8 || q.Alpha < 1 || q.Beta < 1 {
			t.Fatalf("neighbour under floor: %v", q)
		}
	}
}

// TestTuneImprovesOrHolds: coordinate descent never makes the score
// worse than the published starting point, runs every first-round
// neighbour, and walks the same trajectory at one worker and at four.
func TestTuneImprovesOrHolds(t *testing.T) {
	res, err := Tune(context.Background(), "firewall", 1, 2, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score() > res.Start.Score()+1e-9 {
		t.Fatalf("search regressed: start %.4f best %.4f", res.Start.Score(), res.Best.Score())
	}
	if res.Improvement < 1.0 {
		t.Fatalf("improvement = %v", res.Improvement)
	}
	if res.Start.Params != config.DefaultTuned() || res.Rounds < 1 || res.Rounds > 2 {
		t.Fatalf("start %v after %d rounds", res.Start.Params, res.Rounds)
	}
	if want := 1 + len(neighbours(config.DefaultTuned())); res.Evals < want {
		t.Fatalf("evals = %d, want at least %d", res.Evals, want)
	}
	res4, err := Tune(context.Background(), "firewall", 1, 2, harness.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res4 != res {
		t.Fatalf("search differs across worker counts:\n1: %+v\n4: %+v", res, res4)
	}
}

func TestFigure11PointScore(t *testing.T) {
	if got := (Figure11Point{DelayNorm: 3, EnergyNorm: 4}).Score(); got != 5 {
		t.Fatalf("score = %v", got)
	}
}
