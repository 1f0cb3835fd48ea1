// Dataflow: a streaming sensor-analytics graph expressed as a workload
// DAG (internal/workloads/dag) on top of the hardware queues — the
// application class the paper's introduction motivates. Samples stream
// from two sensor sources, merge, are feature-extracted by a replicated
// operator pool, then delivered to separate alarm and archive sinks.
//
//	sensorA --\                        /--> alarms
//	            merge -> features(x4) -
//	sensorB --/                        \--> archive
//
// DAG stages broadcast: every stage emits each message on all of its
// outgoing edges, so the alarm sink receives every sample, not just
// those over a threshold. The merge-to-features edge shards messages
// round-robin across the four feature replicas.
package main

import (
	"fmt"

	"spamer"
	"spamer/internal/workloads/dag"
)

const samples = 1500

// graph is the sensor-analytics DAG. Stage and edge order are
// significant: they fix spawn order and queue creation.
var graph = dag.Spec{
	Name: "dataflow",
	Stages: []dag.Stage{
		{Name: "sensorA", Replicas: 1, Messages: samples, Work: &dag.Dist{Mean: 12}},
		{Name: "sensorB", Replicas: 1, Messages: samples, Work: &dag.Dist{Mean: 14}},
		{Name: "merge", Replicas: 1, Work: &dag.Dist{Mean: 8}},
		{Name: "features", Replicas: 4, Work: &dag.Dist{Mean: 90}},
		{Name: "alarms", Replicas: 1, Work: &dag.Dist{Mean: 20}},
		{Name: "archive", Replicas: 1, Work: &dag.Dist{Mean: 10}},
	},
	Edges: []dag.Edge{
		{From: "sensorA", To: "merge", Lines: 4},
		{From: "sensorB", To: "merge", Lines: 4},
		{From: "merge", To: "features", Policy: dag.PolicyShard, Lines: 4},
		{From: "features", To: "alarms", Lines: 4},
		{From: "features", To: "archive", Lines: 8},
	},
}

func run(alg string) spamer.Result {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg})
	graph.Build(sys, 1)
	return sys.Run()
}

func main() {
	if err := graph.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("%-8s %12s %9s\n", "config", "cycles", "messages")
	base := run(spamer.AlgBaseline)
	fmt.Printf("%-8s %12d %9d\n", spamer.AlgBaseline, base.Ticks, base.Popped)
	res := run(spamer.AlgTuned)
	fmt.Printf("%-8s %12d %9d   (%.2fx)\n", spamer.AlgTuned, res.Ticks, res.Popped, res.Speedup(base))
	fmt.Println("\nevery message is delivered under both configs; only the timing changes.")
}
