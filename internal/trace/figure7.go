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

// Build builds the reduced incast on sys; sys's own Config picks the
// routing device, not cfg.Algorithm.
func (cfg Figure7Config) Build(sys *spamer.System) {
	workloads.BuildIncast(sys, workloads.IncastParams{
		Producers: 1,
		PerProd:   cfg.Messages,
		ProdWork:  cfg.ProdWork,
		ConsWork:  cfg.ConsWork,
		ConsLines: cfg.Lines,
		Burst:     cfg.Burst,
	})
}

// RunFigure7 builds the reduced incast with a tracer on its queues,
// runs it, and returns the tracer plus the run result.
func RunFigure7(cfg Figure7Config) (*Tracer, spamer.Result) {
	sys := spamer.NewSystem(spamer.Config{Algorithm: cfg.Algorithm, Deadline: 1 << 34})
	tr := New()
	sys.SetQueueProbe(tr)
	cfg.Build(sys)
	return tr, sys.Run()
}
