// Package experiments is the evaluation harness: it runs the workloads on
// chopper.Session and CHOPPER's offline pipeline through chopper.Tuner, and
// regenerates every table and figure of the paper's evaluation
// (Figs. 2-4 and 7-14, Tables I-III), plus the ablations listed in
// DESIGN.md. Output structures are plain tables/series so cmd/experiments
// and bench_test.go can print them identically.
package experiments

import (
	"fmt"
	"strings"

	"chopper/internal/metrics"
)

// Table is a printable experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// f1, f2, fp format numbers for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fpct(v float64) string {
	return fmt.Sprintf("%.1f%%", v)
}

// kb renders bytes as KB with one decimal.
func kb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1e3) }

// SeriesSet is a labeled collection of utilization series (Figs. 11-14).
type SeriesSet struct {
	Title  string
	Step   float64
	Labels []string
	Series []metrics.Series
}

// Table renders the series set as a timestamped table.
func (s SeriesSet) Table() Table {
	t := Table{Title: s.Title, Header: append([]string{"time(s)"}, s.Labels...)}
	maxLen := 0
	for _, sr := range s.Series {
		if len(sr.Values) > maxLen {
			maxLen = len(sr.Values)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{fmt.Sprintf("%.0f", float64(i)*s.Step)}
		for _, sr := range s.Series {
			if i < len(sr.Values) {
				row = append(row, f1(sr.Values[i]))
			} else {
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
