// Package report renders analysis results as aligned ASCII tables, CSV
// series and text histograms — the output format of the cmd/ tools,
// chosen so every paper figure regenerates as a series that can be
// eyeballed in a terminal or piped into a plotting tool. The generators in
// internal/figures emit their Fig. 1-6 artefacts and ablations through
// these renderers.
package report

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mathx"
)

// Table is an aligned ASCII table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered
// with %v for strings and %.4g for floats.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case string:
			cells[i] = x
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.AddRow(cells...)
}

// NumRows returns the number of data rows.
//
// test seam: core's TestFullStackNetlistToYield checks that the yield
// table holds one row per checkpoint.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// CSV renders headers plus rows as comma-separated values.
func CSV(headers []string, rows [][]float64) string {
	var b strings.Builder
	b.WriteString(strings.Join(headers, ","))
	b.WriteByte('\n')
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SI formats a value with an engineering prefix, e.g. SI(2.5e-9, "s") →
// "2.5ns".
func SI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	if math.IsInf(v, 1) {
		return "inf" + unit
	}
	if math.IsInf(v, -1) {
		return "-inf" + unit
	}
	prefixes := []struct {
		mag float64
		sym string
	}{
		{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},
		{1e-12, "p"}, {1e-15, "f"},
	}
	a := math.Abs(v)
	for _, p := range prefixes {
		if a >= p.mag {
			return fmt.Sprintf("%.3g%s%s", v/p.mag, p.sym, unit)
		}
	}
	return fmt.Sprintf("%.3g%s", v, unit)
}

// Years formats a duration in seconds as years for lifetime reporting.
func Years(seconds float64) string {
	if math.IsInf(seconds, 1) {
		return "inf"
	}
	const year = 365.25 * 24 * 3600
	return fmt.Sprintf("%.3gyr", seconds/year)
}

// TextHist renders a histogram as horizontal bars, one line per bin.
func TextHist(h *mathx.Histogram, width int) string {
	if width < 1 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10.3g | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	if h.Under > 0 || h.Over > 0 {
		fmt.Fprintf(&b, "(under: %d, over: %d)\n", h.Under, h.Over)
	}
	return b.String()
}

// WeibullPlot renders breakdown times as the standard TDDB plot: the
// Benard median-rank Weibit ln(−ln(1−F)) against ln(t), the coordinates in
// which a Weibull distribution is a straight line with slope β. times need
// not be sorted.
//
// test seam: core's TestWeibullPlotRendering renders a breakdown-time plot
// through it.
func WeibullPlot(title string, times []float64) string {
	s := append([]float64(nil), times...)
	for i := 1; i < len(s); i++ { // insertion sort; plots are small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	t := NewTable(title, "t", "ln t", "F (median rank)", "weibit")
	n := float64(len(s))
	for i, x := range s {
		f := (float64(i+1) - 0.3) / (n + 0.4)
		t.AddRowf(x, math.Log(x), f, mathx.Weibit(f))
	}
	return t.String()
}

// Series prints an (x, y) series as two aligned columns with a header —
// the canonical "figure" output of the bench harness.
func Series(title, xName, yName string, xs, ys []float64) string {
	t := NewTable(title, xName, yName)
	for i := range xs {
		t.AddRowf(xs[i], ys[i])
	}
	return t.String()
}
