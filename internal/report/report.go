// Package report renders experiment results as aligned ASCII tables, CSV,
// and text charts, so every figure and table of the paper can be
// regenerated as terminal output or flat files.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid of cells with named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string // free-form footnotes rendered under the grid
}

// NewTable creates an empty table.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAddRow appends a row and panics on arity mismatch; for use with
// compile-time-constant layouts.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// WriteCSV emits the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := io.WriteString(w, strings.Join(quoted, ",")+"\n")
		return err
	}
	if err := writeLine(t.Columns); err != nil {
		return fmt.Errorf("report: writing CSV: %w", err)
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return fmt.Errorf("report: writing CSV: %w", err)
		}
	}
	return nil
}

// WriteMarkdown emits the table as a GitHub-flavoured Markdown table with
// the title as a heading and notes as a trailing list.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("### " + t.Title + "\n\n")
	}
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for _, c := range cells {
			sb.WriteString(" " + strings.ReplaceAll(c, "|", "\\|") + " |")
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	sb.WriteString("|")
	for range t.Columns {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("\n- " + n)
	}
	sb.WriteString("\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("report: writing markdown: %w", err)
	}
	return nil
}

// F formats a float for table cells with the given precision.
func F(x float64, prec int) string {
	return strconv.FormatFloat(x, 'f', prec, 64)
}

// I formats an int for table cells.
func I(x int) string { return strconv.Itoa(x) }
