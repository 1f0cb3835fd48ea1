package trace

import (
	"spamer"
	"spamer/internal/workloads"
)

// Figure7Config parameterizes the §4.2 tracing experiment. The paper
// traces incast "configured to have a single message queue, a single
// consumer cacheline, and single producer thread", with a two-phase
// producer: steady at first, then bursty, so the trace shows both
// producer-bound and consumer-bound transactions.
type Figure7Config struct {
	Algorithm string // "vl" for the on-demand trace, or a SPAMeR algorithm
	Messages  int
	ProdWork  uint64
	ConsWork  uint64
	Burst     int // producer burst length for the second phase
	Lines     int
}

// DefaultFigure7 mirrors the paper's setup.
func DefaultFigure7(alg string) Figure7Config {
	return Figure7Config{Algorithm: alg, Messages: 220, ProdWork: 90, ConsWork: 60, Burst: 16, Lines: 1}
}

// RunFigure7 builds the reduced incast, attaches a tracer, runs it, and
// returns the tracer plus the run result.
func RunFigure7(cfg Figure7Config) (*Tracer, spamer.Result) {
	sys := spamer.NewSystem(spamer.Config{Algorithm: cfg.Algorithm, Deadline: 1 << 34})
	tr := New()
	workloads.BuildIncast(sys, workloads.IncastParams{
		Producers: 1,
		PerProd:   cfg.Messages,
		ProdWork:  cfg.ProdWork,
		ConsWork:  cfg.ConsWork,
		ConsLines: cfg.Lines,
		Burst:     cfg.Burst,
	})
	// The threads open their endpoints in their first steps, at tick 0,
	// so hook the tracer onto both sides at tick 1: before the first
	// vl_fetch, fill or push acceptance.
	sys.Kernel().AtFunc(1, func(uint64) {
		for _, q := range sys.Queues() {
			for _, c := range q.Consumers() {
				tr.Attach(c)
			}
			for _, pr := range q.Producers() {
				pr.OnAccept = tr.AddDataArrival
			}
		}
	}, 0)
	res := sys.Run()
	return tr, res
}
