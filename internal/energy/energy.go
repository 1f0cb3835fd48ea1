// Package energy implements the §4.5 area and power estimation and the
// energy metric of the Figure 11 sensitivity study.
//
// The paper's numbers come from synthesizing RTL against the FreePDK
// 45 nm library and scaling to a 16 nm node with the Stillmaker-Baas
// scaling equations; we seed an analytic model with the published
// 16 nm results and regenerate the same derived quantities:
//
//   - SRD buffer area 0.156 mm², overall 0.170 mm² (≈15 % over the VLRD);
//   - VLRD dynamic power 9.33 mW, leakage 0.82 mW at 0.86 V;
//   - SRD dynamic power = VLRD dynamic power x push-frequency factor
//     (bounded by ≈2.45x for adaptive and ≈5.03x for tuned in the
//     paper's runs, giving the "at most 47.75 mW" headline);
//   - one Arm A-72 core ≈1.15 mm² at 16FF, so 16 cores ≥18.4 mm² and the
//     SRD is <1 % of SoC area; a 16-core SoC ≈21 W makes the SRD ≈0.23 %
//     of SoC power.
package energy

import (
	"spamer"
	"spamer/internal/config"
)

// Published 16 nm reference constants (§4.5).
const (
	// SRDBufferAreaMM2 is the area of all SRD buffers at the Table 1
	// sizing (64 entries per structure).
	SRDBufferAreaMM2 = 0.156
	// SRDAreaMM2 is the total SRD area including control logic.
	SRDAreaMM2 = 0.170
	// VLRDAreaMM2 is the baseline routing device area ("within 15%
	// increase from the area of VLRD").
	VLRDAreaMM2 = SRDAreaMM2 / 1.15
	// VLRDDynamicMW and VLRDLeakageMW are the baseline power numbers at
	// 16FF, 0.86 V supply.
	VLRDDynamicMW = 9.33
	VLRDLeakageMW = 0.82
	// CoreAreaMM2 is one Arm A-72 core at 16FF.
	CoreAreaMM2 = 1.15
	// SoCPowerW approximates the simulated 16-core SoC power.
	SoCPowerW = 21.0
)

// AreaReport is the §4.5 area summary.
type AreaReport struct {
	Entries        int     // specBuf/prodBuf/consBuf/linkTab entries
	BufferAreaMM2  float64 // all SRD buffers
	TotalAreaMM2   float64 // buffers + control
	VLRDAreaMM2    float64 // baseline device for comparison
	IncreasePct    float64 // SRD over VLRD
	SoCAreaMM2     float64 // 16 cores, excluding L2 and wires
	SRDShareOfSoC  float64 // fraction
	UnderOnePctSoC bool
}

// Area computes the report for a given per-structure entry count
// (Table 1 default 64). Buffer area scales linearly with entries;
// control logic is held at the published fixed cost.
func Area(entries int) AreaReport {
	if entries <= 0 {
		entries = config.SRDEntries
	}
	buf := SRDBufferAreaMM2 * float64(entries) / float64(config.SRDEntries)
	ctrl := SRDAreaMM2 - SRDBufferAreaMM2
	total := buf + ctrl
	soc := CoreAreaMM2 * float64(config.NumCores)
	return AreaReport{
		Entries:        entries,
		BufferAreaMM2:  buf,
		TotalAreaMM2:   total,
		VLRDAreaMM2:    VLRDAreaMM2,
		IncreasePct:    (total/VLRDAreaMM2 - 1) * 100,
		SoCAreaMM2:     soc,
		SRDShareOfSoC:  total / soc,
		UnderOnePctSoC: total/soc < 0.01,
	}
}

// PowerReport is the §4.5 power summary for one measured run.
type PowerReport struct {
	PushFactor  float64 // SRD pushes per baseline push
	DynamicMW   float64
	TotalMW     float64 // dynamic plus VLRDLeakageMW
	ShareOfSoC  float64
	WithinPaper bool // <= the paper's 47.75 mW bound
}

// Power scales the baseline dynamic power by the push-frequency factor
// ("we multiply the dynamic power by the factor of push frequency").
func Power(pushFactor float64) PowerReport {
	if pushFactor < 1 {
		pushFactor = 1
	}
	dyn := VLRDDynamicMW * pushFactor
	tot := dyn + VLRDLeakageMW
	return PowerReport{
		PushFactor:  pushFactor,
		DynamicMW:   dyn,
		TotalMW:     tot,
		ShareOfSoC:  tot / (SoCPowerW * 1000),
		WithinPaper: tot <= 47.75+1e-9,
	}
}

// PushFactor computes the push-frequency factor of a run relative to a
// baseline run: total stashes per unit time, normalized.
func PushFactor(run, baseline spamer.Result) float64 {
	if baseline.Ticks == 0 || run.Ticks == 0 {
		return 1
	}
	base := float64(baseline.Device.TotalPushes()) / float64(baseline.Ticks)
	if base == 0 {
		return 1
	}
	f := (float64(run.Device.TotalPushes()) / float64(run.Ticks)) / base
	if f < 1 {
		return 1
	}
	return f
}

// Figure 11 metrics: both axes normalized to the VL baseline.

// DelayNorm is the x-axis: end-to-end execution time relative to VL.
func DelayNorm(run, baseline spamer.Result) float64 {
	if baseline.Ticks == 0 {
		return 0
	}
	return float64(run.Ticks) / float64(baseline.Ticks)
}

// EnergyNorm is the y-axis: the dynamic energy of SRD pushes relative
// to VL. Dynamic energy is proportional to the number of stashes issued
// (successful and failed alike — a failed push burns the same switching
// energy and is retried).
func EnergyNorm(run, baseline spamer.Result) float64 {
	b := baseline.Device.TotalPushes()
	if b == 0 {
		return 0
	}
	return float64(run.Device.TotalPushes()) / float64(b)
}
