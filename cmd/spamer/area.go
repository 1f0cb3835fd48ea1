package main

import (
	"fmt"

	"spamer/internal/energy"
	"spamer/internal/experiments"
	"spamer/internal/report"
)

// areaCmd regenerates the §4.5 area and power estimation: SRD area at
// the Table 1 sizing (paper: 0.156 mm² of buffers, 0.170 mm² total, <1%
// of a 16-core SoC) and worst-case SRD power per delay algorithm from
// measured push-frequency factors (paper: at most 47.75 mW, ≈0.23% of
// SoC power). Both tables print once the measurement matrix is in;
// SIGINT or SIGTERM stops the matrix from starting runs and fails the
// command with nothing on stdout.
func areaCmd(c *cli) error {
	entries := c.flags.Int("entries", 0, "specBuf entries (0 = Table 1 default, 64)")
	scale := c.flags.Int("scale", 1, "message-count multiplier for the power measurement")
	if err := c.parse(); err != nil {
		return err
	}
	fmt.Fprintln(c.stderr, "measuring push-frequency factors across the benchmark matrix...")
	ctx, stop := c.interruptible()
	defer stop()
	m, err := experiments.RunMatrixParallel(ctx, *scale, c.pool(""))
	if err != nil {
		return err
	}

	w := c.stdout
	a := energy.Area(*entries)
	fmt.Fprintln(w, "§4.5 area estimation (16 nm, scaled per Stillmaker-Baas from FreePDK45 synthesis)")
	report.Table(w, [][]string{
		{"quantity", "value"},
		{"specBuf/prodBuf/consBuf/linkTab entries", fmt.Sprint(a.Entries)},
		{"SRD buffer area", fmt.Sprintf("%.3f mm²", a.BufferAreaMM2)},
		{"SRD total area", fmt.Sprintf("%.3f mm²", a.TotalAreaMM2)},
		{"VLRD area (baseline)", fmt.Sprintf("%.3f mm²", a.VLRDAreaMM2)},
		{"increase over VLRD", fmt.Sprintf("%.1f%%", a.IncreasePct)},
		{"16-core SoC area (excl. L2/wires)", fmt.Sprintf("%.1f mm²", a.SoCAreaMM2)},
		{"SRD share of SoC", fmt.Sprintf("%.2f%%", a.SRDShareOfSoC*100)},
	}, true)
	fmt.Fprintln(w, "paper reference: 0.156 mm² buffers, 0.170 mm² total, <1% of SoC")
	fmt.Fprintln(w)

	ap := experiments.Section45(m)
	rows := [][]string{{"algorithm", "push factor", "dynamic", "total", "SoC share", "within paper bound"}}
	for _, alg := range m.Configs[1:] {
		p := ap.PowerByAlg[alg]
		rows = append(rows, []string{
			alg,
			fmt.Sprintf("%.2fx", p.PushFactor),
			fmt.Sprintf("%.2f mW", p.DynamicMW),
			fmt.Sprintf("%.2f mW", p.TotalMW),
			fmt.Sprintf("%.3f%%", p.ShareOfSoC*100),
			fmt.Sprint(p.WithinPaper),
		})
	}
	fmt.Fprintln(w, "§4.5 power estimation (baseline VLRD: 9.33 mW dynamic + 0.82 mW leakage @ 0.86 V)")
	report.Table(w, rows, true)
	fmt.Fprintln(w, "paper reference: adaptive <=2.45x, tuned <=5.03x, at most 47.75 mW (~0.23% of SoC power)")
	return nil
}
