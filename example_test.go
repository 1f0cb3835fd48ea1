package spamer_test

import (
	"fmt"

	"spamer"
)

// The canonical single-producer single-consumer flow: SPAMeR's
// speculative pushes eliminate all consumer request traffic.
func Example() {
	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned})
	q := sys.NewQueue("work")

	const n = 100
	(&spamer.Source{Out: q, N: n, Work: 10}).Spawn(sys, "producer")
	(&spamer.Stage{In: q, Lines: 4, N: n, Work: 25}).Spawn(sys, "consumer")

	res := sys.Run()
	fmt.Println("messages:", res.Popped)
	fmt.Println("requests:", res.Device.Fetches)
	// Output:
	// messages: 100
	// requests: 0
}

// Comparing configurations: the same workload under the Virtual-Link
// baseline and SPAMeR. Runs are deterministic, so the comparison is
// exact.
func Example_comparison() {
	run := func(alg string) spamer.Result {
		sys := spamer.NewSystem(spamer.Config{Algorithm: alg})
		q := sys.NewQueue("q")
		(&spamer.Source{Out: q, N: 50, Work: 10}).Spawn(sys, "p")
		(&spamer.Stage{In: q, Lines: 2, N: 50, Work: 30}).Spawn(sys, "c")
		return sys.Run()
	}
	base := run(spamer.AlgBaseline)
	spec := run(spamer.AlgZeroDelay)
	fmt.Println("SPAMeR faster:", spec.Ticks < base.Ticks)
	// Output:
	// SPAMeR faster: true
}

// Dynamic M:N consumption with a WorkCounter: four workers share one
// queue without knowing their share in advance.
func Example_workSharing() {
	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned})
	q := sys.NewQueue("jobs")
	const jobs = 80

	(&spamer.Source{Out: q, N: jobs, Work: 8}).Spawn(sys, "dispatcher")
	wc := spamer.NewWorkCounter("jobs", jobs)
	done := 0
	for w := 0; w < 4; w++ {
		(&spamer.Stage{In: q, Lines: 2, Shared: wc, Work: 100,
			OnPop: func(m spamer.Message) uint64 {
				done++
				return m.Payload
			},
		}).Spawn(sys, "worker")
	}
	sys.Run()
	fmt.Println("done:", done)
	// Output:
	// done: 80
}
