// Packet pipeline: a network-function chain (the workload class the
// paper's pipeline and firewall benchmarks represent) built on the
// public API — receive, classify into two lanes, filter, and merge —
// run under all four routing-device configurations.
//
// The example also shows the two M:N idioms of the library: a (2:1)
// merge queue with a single consumer, and dynamic work sharing with
// spamer.WorkCounter when consumers cannot know their share statically.
package main

import (
	"fmt"

	"spamer"
)

const packets = 2000

func run(alg string) spamer.Result {
	sys := spamer.NewSystem(spamer.Config{Algorithm: alg})

	ingress := sys.NewQueue("ingress") // rx -> classifiers (1:2)
	lane := sys.NewQueue("lane")       // classifiers -> filters (2:2)
	egress := sys.NewQueue("egress")   // filters -> tx (2:1)

	// rx: DMA + checksum, 18 cycles per packet.
	(&spamer.Source{Out: ingress, N: packets, Work: 18}).Spawn(sys, "rx")

	// The classifiers (5-tuple lookup) and filters (rule evaluation)
	// relay packets, each taking from a shared count.
	classifyWork := spamer.NewWorkCounter("classify", packets)
	filterWork := spamer.NewWorkCounter("filter", packets)
	for w := 0; w < 2; w++ {
		(&spamer.Stage{In: ingress, Lines: 4, Out: lane, Shared: classifyWork, Work: 30}).
			Spawn(sys, fmt.Sprintf("classify%d", w))
		(&spamer.Stage{In: lane, Lines: 4, Out: egress, Shared: filterWork, Work: 45}).
			Spawn(sys, fmt.Sprintf("filter%d", w))
	}

	// tx: egress descriptor, 12 cycles per packet.
	(&spamer.Stage{In: egress, Lines: 8, N: packets, Work: 12}).Spawn(sys, "tx")

	return sys.Run()
}

func main() {
	fmt.Printf("%-10s %12s %10s %10s %9s\n", "config", "cycles", "pkts/kcyc", "failures", "bus util")
	var base spamer.Result
	for _, alg := range spamer.Configs() {
		res := run(alg)
		if alg == spamer.AlgBaseline {
			base = res
		}
		rate := float64(packets) / (float64(res.Ticks) / 1000)
		fmt.Printf("%-10s %12d %10.2f %9.1f%% %8.1f%%", alg, res.Ticks, rate,
			res.FailureRate()*100, res.BusUtilization*100)
		if alg != spamer.AlgBaseline {
			fmt.Printf("   (%.2fx)", res.Speedup(base))
		}
		fmt.Println()
	}
}
