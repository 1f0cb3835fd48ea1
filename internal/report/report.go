// Package report renders the reproduction harness's tables and figures
// as plain text: aligned tables for Tables 1-2 and horizontal bar charts
// for the Figure 8-11 series.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table renders rows of cells with aligned columns. The first row is
// treated as the header when header is true.
func Table(w io.Writer, rows [][]string, header bool) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(r []string) {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(rows[0])
	if header {
		total := 0
		for _, wd := range widths {
			total += wd + 2
		}
		fmt.Fprintln(w, strings.Repeat("-", total-2))
	}
	for _, r := range rows[1:] {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders one horizontal bar scaled so that maxVal maps to width
// characters.
func Bar(val, maxVal float64, width int) string {
	if maxVal <= 0 || val < 0 {
		return ""
	}
	n := int(val / maxVal * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// BarChart renders labelled values as horizontal bars with the numeric
// value appended, in the given order.
func BarChart(w io.Writer, title string, labels []string, values []float64, unit string) {
	fmt.Fprintln(w, title)
	maxVal := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	for i, v := range values {
		fmt.Fprintf(w, "  %s |%s %.3g%s\n", pad(labels[i], maxLabel), pad(Bar(v, maxVal, 40), 40), v, unit)
	}
}

// GroupedBarChart renders one row per group with one bar per series —
// the layout of Figures 8-10 (benchmarks x configurations).
func GroupedBarChart(w io.Writer, title string, groups []string, series []string, values [][]float64, unit string) {
	fmt.Fprintln(w, title)
	maxVal := 0.0
	for _, row := range values {
		for _, v := range row {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	maxG, maxS := 0, 0
	for _, g := range groups {
		if len(g) > maxG {
			maxG = len(g)
		}
	}
	for _, s := range series {
		if len(s) > maxS {
			maxS = len(s)
		}
	}
	for gi, g := range groups {
		for si, s := range series {
			label := ""
			if si == 0 {
				label = g
			}
			fmt.Fprintf(w, "  %s  %s |%s %.3g%s\n",
				pad(label, maxG), pad(s, maxS), pad(Bar(values[gi][si], maxVal, 36), 36), values[gi][si], unit)
		}
	}
}

// Scatter renders (x, y) points with labels — the Figure 11 layout
// (delay vs energy, normalized to the baseline at (1, 1)).
func Scatter(w io.Writer, title string, labels []string, xs, ys []float64, xName, yName string) {
	fmt.Fprintf(w, "%s  (%s, %s)\n", title, xName, yName)
	maxLabel := 0
	for _, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
	}
	for i := range labels {
		fmt.Fprintf(w, "  %s  x=%-8.3f y=%-8.3f\n", pad(labels[i], maxLabel), xs[i], ys[i])
	}
}
