package workloads

import (
	"fmt"

	"spamer"
)

// incast: four producer threads stream data to one master thread through
// a single (4:1) queue (Ember's Incast motif). The master's endpoint has
// 32 consumer cache lines (§4.3 mentions "32 consumer cachelines in
// incast"). Producers run ahead of the master, so data waits at the
// routing device — speculation converts the master's request round trips
// into overlap.
const (
	incastProducers  = 4
	incastPerProd    = 600
	incastProdWork   = 70 // producer-side generation cost per message
	incastConsWork   = 55 // master-side handling cost per message
	incastConsLines  = 32
	incastProdWindow = 4
)

func init() {
	register(&Workload{
		Name:      "incast",
		Desc:      "all threads sending data to the master thread",
		QueueSpec: "(4:1)x1",
		Threads:   incastProducers + 1,
		Build: func(sys *spamer.System, scale int) {
			BuildIncast(sys, IncastParams{
				Producers: incastProducers,
				PerProd:   incastPerProd * scale,
				ProdWork:  incastProdWork,
				ConsWork:  incastConsWork,
				ConsLines: incastConsLines,
			})
		},
	})
}

// IncastParams parameterizes the incast pattern; the Figure 7 trace uses
// a reduced configuration (single producer, single consumer line).
type IncastParams struct {
	Producers int
	PerProd   int
	ProdWork  uint64
	ConsWork  uint64
	ConsLines int
	// Burst > 0 makes producers emit in bursts of the given length
	// followed by an idle gap of Burst*ProdWork cycles, reproducing the
	// two-phase behaviour visible in the Figure 7 trace.
	Burst int
	// OnConsumer, if non-nil, receives the consumer endpoint right
	// after creation (the tracer hooks its lines).
	OnConsumer func(c *spamer.Consumer)
}

// BuildIncast constructs the incast pattern with explicit parameters.
func BuildIncast(sys *spamer.System, p IncastParams) {
	q := sys.NewQueue("incast")
	prods := make([]source, p.Producers)
	for i := range prods {
		m := &prods[i]
		*m = source{q: q, window: incastProdWindow, work: p.ProdWork, burst: p.Burst, n: p.PerProd}
		m.spawn(sys, fmt.Sprintf("incast/prod%d", i), m.run)
	}
	master := &consumer{in: q, lines: p.ConsLines, n: p.Producers * p.PerProd, work: p.ConsWork, onOpen: p.OnConsumer}
	master.spawn(sys, "incast/master", master.run)
}
