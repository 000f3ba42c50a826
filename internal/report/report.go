// Package report renders the experiment results as the aligned text
// tables and data series that regenerate the paper's figures and tables.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values (for replotting).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Headers, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Bytes formats a byte count the way the paper labels its axes.
func Bytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprint(n)
	}
}
