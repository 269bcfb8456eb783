package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAddRowArity(t *testing.T) {
	tb := NewTable("t", "a", "b")
	if err := tb.AddRow("1"); err == nil {
		t.Error("short row did not error")
	}
	if err := tb.AddRow("1", "2"); err != nil {
		t.Errorf("valid row errored: %v", err)
	}
}

func TestMustAddRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddRow with wrong arity did not panic")
		}
	}()
	NewTable("t", "a").MustAddRow("1", "2")
}

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.MustAddRow("short", "1")
	tb.MustAddRow("a-much-longer-name", "22")
	tb.AddNote("n=%d", 2)
	out := tb.Render()

	if !strings.Contains(out, "== Demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "note: n=2") {
		t.Error("note missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + separator + 2 rows + 1 note
	if len(lines) != 6 {
		t.Errorf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
	// Value column aligned: both data rows place the value at the same
	// column index.
	idx1 := strings.Index(lines[3], "1")
	idx2 := strings.Index(lines[4], "22")
	if idx1 != idx2 {
		t.Errorf("columns unaligned: %d vs %d\n%s", idx1, idx2, out)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.MustAddRow(`has,comma`, `has"quote`)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `"has,comma"`) {
		t.Errorf("comma cell not quoted: %q", got)
	}
	if !strings.Contains(got, `"has""quote"`) {
		t.Errorf("quote cell not escaped: %q", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Errorf("header wrong: %q", got)
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
	if I(42) != "42" {
		t.Errorf("I = %q", I(42))
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.MustAddRow("a|b", "1")
	tb.AddNote("a note")
	var buf bytes.Buffer
	if err := tb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "### Demo") {
		t.Error("markdown heading missing")
	}
	if !strings.Contains(got, "| name | value |") {
		t.Errorf("header row wrong:\n%s", got)
	}
	if !strings.Contains(got, "|---|---|") {
		t.Error("separator row missing")
	}
	if !strings.Contains(got, `a\|b`) {
		t.Error("pipe not escaped in cell")
	}
	if !strings.Contains(got, "- a note") {
		t.Error("note missing")
	}
}
