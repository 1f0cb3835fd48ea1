// Package workloads implements the eight task-parallel benchmarks of
// Table 2 on the spamer public API, with the exact queue shapes the paper
// lists ((#producer:#consumer) x #queue):
//
//	ping-pong  (1:1)x2    data back and forth between two threads
//	halo       (1:1)x48   exchange data with neighbouring threads
//	sweep      (1:1)x48   data sweeps through a grid corner to corner
//	incast     (4:1)x1    all threads sending data to the master thread
//	pipeline   (1:4)x1+(4:4)x1+(4:1)x1+(1:1)x1   4-stage pipeline
//	firewall   (1:1)x3+(2:1)x1   filter and dispatch packages
//	FIR        (1:1)x9    data streams through 10-stage FIR filter
//	bitonic    (1:N)x1+(M:1)x1   sort with worker threads
//
// Each workload is deterministic: thread structure, message counts, and
// per-message compute are fixed by the scale parameter, so a VL run and a
// SPAMeR run of the same workload do identical application work and their
// execution times are directly comparable (Figure 8).
package workloads

import (
	"fmt"
	"sort"

	"spamer"
)

// Workload describes one benchmark.
type Workload struct {
	// Name is the benchmark name as used in the paper's figures.
	Name string
	// Desc is the Table 2 description.
	Desc string
	// QueueSpec is the Table 2 queue shape, e.g. "(1:1)x48".
	QueueSpec string
	// Threads is the number of application threads spawned.
	Threads int
	// Build creates the queues and spawns the threads on sys. scale
	// multiplies message counts (1 = harness default; tests use less).
	Build func(sys *spamer.System, scale int)
}

// Run builds the workload on a fresh system and drives it to completion.
func (w *Workload) Run(cfg spamer.Config, scale int) spamer.Result {
	if scale <= 0 {
		scale = 1
	}
	sys := spamer.NewSystem(cfg)
	w.Build(sys, scale)
	return sys.Run()
}

var registry = map[string]*Workload{}
var order []string

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate %q", w.Name))
	}
	registry[w.Name] = w
	order = append(order, w.Name)
}

// All returns the benchmarks in the paper's Figure 8 order.
func All() []*Workload {
	paper := []string{"bitonic", "sweep", "ping-pong", "incast", "halo", "pipeline", "firewall", "FIR"}
	var out []*Workload
	for _, n := range paper {
		if w, ok := registry[n]; ok {
			out = append(out, w)
		}
	}
	// Append any extras not in the canonical list, sorted, so custom
	// registrations are not silently dropped.
	var extra []string
	for _, n := range order {
		found := false
		for _, p := range paper {
			if n == p {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		out = append(out, registry[n])
	}
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (*Workload, bool) {
	w, ok := registry[name]
	return w, ok
}

// Names returns every registered benchmark name in Figure 8 order.
func Names() []string {
	ws := All()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
