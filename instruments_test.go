package spamer_test

import (
	"fmt"
	"testing"

	"spamer"
	"spamer/internal/oracle"
	"spamer/internal/stats"
	"spamer/internal/trace"
	"spamer/internal/workloads"
)

// TestInstrumentsOnlyObserve: each instrument — the oracle's checker,
// the Figure 7 tracer and the phase sampler — leaves the run it watches
// unchanged: the same Result, the same number of dispatched events and,
// where the instrument leaves the kernel's dispatch-observer slot free,
// the same dispatch-trace hash as the run without it. Each instrument
// must also have seen the whole run, so an instrument that observes
// nothing cannot pass.
func TestInstrumentsOnlyObserve(t *testing.T) {
	type instrument struct {
		name string
		// takesObserver: the instrument runs on the kernel's one
		// dispatch-observer slot, so the run cannot also be hashed.
		takesObserver bool
		// install runs before the workload is built; the check it
		// returns runs on the finished run's Result.
		install func(*spamer.System) func(spamer.Result) error
	}
	instruments := []instrument{
		{"oracle", false, func(sys *spamer.System) func(spamer.Result) error {
			c := oracle.Attach(sys)
			return func(res spamer.Result) error {
				if v := c.Finish(&res); len(v) > 0 {
					return fmt.Errorf("%d violations, first %v", len(v), v[0])
				}
				return nil
			}
		}},
		{"figure7-tracer", false, func(sys *spamer.System) func(spamer.Result) error {
			tr := trace.New()
			sys.SetQueueProbe(tr)
			return func(res spamer.Result) error {
				// Each message is accepted, filled, used and vacated.
				if n := len(tr.Events()); uint64(n) < 4*res.Popped {
					return fmt.Errorf("%d events for %d messages", n, res.Popped)
				}
				return nil
			}
		}},
		{"phase-sampler", true, func(sys *spamer.System) func(spamer.Result) error {
			s := stats.Attach(sys, 2048)
			return func(res spamer.Result) error {
				ws := s.Windows()
				var out uint64
				for _, w := range ws {
					out += w.MessagesOut
				}
				if out != res.Popped || ws[len(ws)-1].EndTick != res.Ticks {
					return fmt.Errorf("windows hold %d messages up to tick %d; run popped %d by tick %d",
						out, ws[len(ws)-1].EndTick, res.Popped, res.Ticks)
				}
				return nil
			}
		}},
	}
	type workload struct {
		name  string
		build func(*spamer.System)
	}
	builds := []workload{{"figure7", trace.DefaultFigure7("").Build}}
	for _, name := range []string{"FIR", "halo", "pipeline", "allreduce"} {
		w, ok := workloads.ByName(name)
		if !ok {
			w, _ = workloads.ExtendedByName(name)
		}
		builds = append(builds, workload{name, func(sys *spamer.System) { w.Build(sys, 1) }})
	}

	for _, b := range builds {
		for _, alg := range []string{spamer.AlgBaseline, spamer.AlgTuned} {
			sys := spamer.NewSystem(spamer.Config{Algorithm: alg})
			b.build(sys)
			sys.EnableDispatchTrace()
			want := sys.Run()
			wantEvents, wantHash := sys.Kernel().Executed(), sys.DispatchTraceHash()
			for _, in := range instruments {
				t.Run(b.name+"/"+alg+"/"+in.name, func(t *testing.T) {
					sys := spamer.NewSystem(spamer.Config{Algorithm: alg})
					check := in.install(sys)
					b.build(sys)
					if !in.takesObserver {
						sys.EnableDispatchTrace()
					}
					got := sys.Run()
					if got != want {
						t.Errorf("Result differs:\n got %+v\nwant %+v", got, want)
					}
					if n := sys.Kernel().Executed(); n != wantEvents {
						t.Errorf("dispatched %d events, %d without the instrument", n, wantEvents)
					}
					if !in.takesObserver {
						if h := sys.DispatchTraceHash(); h != wantHash {
							t.Errorf("dispatch hash %#x, %#x without the instrument", h, wantHash)
						}
					}
					if err := check(got); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}
