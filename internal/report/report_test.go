package report

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "T" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[4], "2.500") {
		t.Errorf("float formatting: %q", lines[4])
	}
	// All data lines should have the value column starting at the same
	// offset.
	idx1 := strings.Index(lines[3], "1")
	idx2 := strings.Index(lines[4], "2.500")
	if idx1 != idx2 {
		t.Errorf("columns misaligned: %d vs %d", idx1, idx2)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

// TestTableAlignsMultiByteCells: a µs duration is wider in bytes than
// in characters, and the column after it must still start at the same
// character offset on every row.
func TestTableAlignsMultiByteCells(t *testing.T) {
	tb := NewTable("", "series", "mean", "p50")
	tb.AddRow("a", "283.7µs", "x")
	tb.AddRow("b", "10ms", "y")
	tb.AddRow("c", "1.5µs", "z")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	want := utf8.RuneCountInString(lines[0][:strings.Index(lines[0], "p50")])
	for i, cell := range []string{"x", "y", "z"} {
		line := lines[2+i]
		if col := utf8.RuneCountInString(line[:strings.Index(line, cell)]); col != want {
			t.Errorf("row %d: p50 column starts at character %d, want %d:\n%s", i, col, want, tb)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "h")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("plain", `with "quotes", and commas`)
	csv := tb.CSV()
	want := "a,b\nplain,\"with \"\"quotes\"\", and commas\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestHelpers(t *testing.T) {
	if Pct(0.256) != "25.6%" {
		t.Errorf("Pct = %q", Pct(0.256))
	}
	if KB(2048) != "2.00 KiB" {
		t.Errorf("KB = %q", KB(2048))
	}
	if Bar(5, 10, 10) != "#####" {
		t.Errorf("Bar = %q", Bar(5, 10, 10))
	}
	if Bar(20, 10, 10) != "##########" {
		t.Error("Bar should clamp")
	}
	if Bar(1, 0, 10) != "" {
		t.Error("Bar with zero max")
	}
}
