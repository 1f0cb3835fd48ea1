// Package experiments regenerates every table and figure of the paper's
// evaluation section from the simulator. Each experiment returns plain
// data; cmd/spamer renders it with internal/report, and the root bench
// suite wraps each in a testing.B benchmark. A study that runs
// simulations has one entry point, a *Parallel function (or Tune, the
// parameter search) taking a context and the harness.Options of its
// worker pool.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"spamer"
	"spamer/internal/config"
	"spamer/internal/energy"
	"spamer/internal/trace"
	"spamer/internal/workloads"
)

// Matrix holds one result per (benchmark, configuration) — the common
// input of Figures 8, 9 and 10, which read its cells directly.
type Matrix struct {
	Benchmarks []string
	Configs    []string
	Results    map[string]map[string]spamer.Result
}

// Speedup returns benchmark b's speedup of alg over the VL baseline.
func (m *Matrix) Speedup(b, alg string) float64 {
	return m.Results[b][alg].Speedup(m.Results[b][spamer.AlgBaseline])
}

// Geomean returns the geometric-mean speedup of alg across benchmarks.
func (m *Matrix) Geomean(alg string) float64 {
	sum := 0.0
	for _, b := range m.Benchmarks {
		sum += math.Log(m.Speedup(b, alg))
	}
	return math.Exp(sum / float64(len(m.Benchmarks)))
}

// ---------------------------------------------------------------------
// Tables 1 and 2.
// ---------------------------------------------------------------------

// Table1Rows returns the simulated hardware configuration.
func Table1Rows() [][]string {
	rows := [][]string{{"Component", "Configuration"}}
	for _, kv := range config.Table1() {
		rows = append(rows, []string{kv[0], kv[1]})
	}
	return rows
}

// Table2Rows returns the benchmark descriptions and queue shapes.
func Table2Rows() [][]string {
	rows := [][]string{{"Benchmark", "Description", "(M:N)xk", "Threads"}}
	for _, w := range workloads.All() {
		rows = append(rows, []string{w.Name, w.Desc, w.QueueSpec, fmt.Sprint(w.Threads)})
	}
	return rows
}

// ---------------------------------------------------------------------
// Figure 7: message-queue transaction trace.
// ---------------------------------------------------------------------

// Figure7 runs the tracing experiment for a given algorithm.
func Figure7(alg string) (*trace.Tracer, trace.Summary, spamer.Result) {
	tr, res := trace.RunFigure7(trace.DefaultFigure7(alg))
	return tr, trace.Summarize(tr.Transactions()), res
}

// ---------------------------------------------------------------------
// Figure 11: sensitivity of the tuned parameters (delay vs energy).
// ---------------------------------------------------------------------

// Figure11Point is one marker of a Figure 11 panel.
type Figure11Point struct {
	Label      string
	Params     config.TunedParams // zero for the named algorithms
	DelayNorm  float64
	EnergyNorm float64
}

// Figure11Grid returns the tuned-parameter combinations swept in
// addition to the named algorithms: variations of each parameter around
// the paper's chosen set (ζ=256, τ=96, δ=64, α=1, β=2).
func Figure11Grid() []config.TunedParams {
	base := config.DefaultTuned()
	var grid []config.TunedParams
	add := func(p config.TunedParams) {
		for _, g := range grid {
			if g == p {
				return
			}
		}
		grid = append(grid, p)
	}
	for _, zeta := range []uint64{128, 256, 512} {
		p := base
		p.Zeta = zeta
		add(p)
	}
	for _, tau := range []uint64{48, 96, 192} {
		p := base
		p.Tau = tau
		add(p)
	}
	for _, delta := range []uint64{16, 64, 128} {
		p := base
		p.Delta = delta
		add(p)
	}
	for _, alpha := range []uint64{1, 2} {
		p := base
		p.Alpha = alpha
		add(p)
	}
	for _, beta := range []uint64{2, 4} {
		p := base
		p.Beta = beta
		add(p)
	}
	sort.SliceStable(grid, func(i, j int) bool { return grid[i].String() < grid[j].String() })
	return grid
}

// ---------------------------------------------------------------------
// §4.3 inlining study and §4.5 power.
// ---------------------------------------------------------------------

// InlineStudyRow is one benchmark's library-inlining speedup on the VL
// baseline (paper: 1.02x average).
type InlineStudyRow struct {
	Benchmark string
	Speedup   float64
}

// Section45 returns the §4.5 worst-case power of each SPAMeR algorithm
// across the matrix's benchmarks, from its highest push-frequency
// factor over the VL baseline.
func Section45(m *Matrix) map[string]energy.PowerReport {
	power := map[string]energy.PowerReport{}
	for _, alg := range m.Configs[1:] {
		worst := 1.0
		for _, b := range m.Benchmarks {
			f := energy.PushFactor(m.Results[b][alg], m.Results[b][spamer.AlgBaseline])
			if f > worst {
				worst = f
			}
		}
		power[alg] = energy.Power(worst)
	}
	return power
}
