package trace

import (
	"strings"
	"testing"
)

func TestSeriesAddAndFinal(t *testing.T) {
	s := &Series{Name: "a"}
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 || s.FinalY() != 20 {
		t.Fatalf("Len=%d FinalY=%v", s.Len(), s.FinalY())
	}
	empty := &Series{}
	if empty.FinalY() != 0 {
		t.Fatal("empty FinalY should be 0")
	}
}

func TestSeriesYAtX(t *testing.T) {
	s := &Series{}
	s.Add(1, 0.2)
	s.Add(3, 0.5)
	s.Add(5, 0.6)
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2, 0.2}, {3, 0.5}, {4.9, 0.5}, {5, 0.6}, {100, 0.6},
	}
	for _, c := range cases {
		if got := s.YAtX(c.x); got != c.want {
			t.Errorf("YAtX(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestFigureSeriesAndCSV(t *testing.T) {
	f := &Figure{ID: "fig9", Title: "Accuracy vs round", XLabel: "round", YLabel: "accuracy"}
	a := f.AddSeries("FedAvg")
	a.Add(0, 0.3)
	a.Add(1, 0.4)
	b := f.AddSeries("Group-FEL")
	b.Add(0, 0.35)
	if f.Get("FedAvg") != a || f.Get("missing") != nil {
		t.Fatal("Get broken")
	}
	csv := f.CSV()
	for _, want := range []string{"fig9", "series,round,accuracy", "FedAvg,0,0.3", "Group-FEL,0,0.35"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
	if !strings.Contains(f.Summary(), "FedAvg") {
		t.Error("Summary missing series")
	}
}

func TestTableCSVAndMarkdown(t *testing.T) {
	tb := &Table{ID: "table1", Title: "Group-FEL performance", Header: []string{"alpha", "acc"}}
	tb.AddRow("0.1", "56.7%")
	csv := tb.CSV()
	if !strings.Contains(csv, "alpha,acc") || !strings.Contains(csv, "0.1,56.7%") {
		t.Fatalf("bad CSV:\n%s", csv)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| alpha | acc |") || !strings.Contains(md, "| 0.1 | 56.7% |") {
		t.Fatalf("bad markdown:\n%s", md)
	}
}

func TestTableMarkdownSanitizesCells(t *testing.T) {
	tb := &Table{ID: "t|2", Title: "with\nnewline", Header: []string{"a|b", "c"}}
	tb.AddRow("x|y", "line1\nline2")
	md := tb.Markdown()
	if !strings.Contains(md, `**t\|2 — with newline**`) {
		t.Fatalf("title not sanitized:\n%s", md)
	}
	if !strings.Contains(md, `| a\|b | c |`) {
		t.Fatalf("header not sanitized:\n%s", md)
	}
	if !strings.Contains(md, `| x\|y | line1 line2 |`) {
		t.Fatalf("cells not sanitized:\n%s", md)
	}
	// Every rendered line must still have the same number of columns.
	for _, line := range strings.Split(strings.TrimSpace(md), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if n := strings.Count(strings.ReplaceAll(line, `\|`, ""), "|"); n != 3 {
			t.Fatalf("line %q has %d unescaped pipes, want 3", line, n)
		}
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestSanitize(t *testing.T) {
	if sanitize("a,b\nc") != "a;b c" {
		t.Fatalf("sanitize = %q", sanitize("a,b\nc"))
	}
}

func TestSparkline(t *testing.T) {
	s := &Series{}
	for i, y := range []float64{0, 0.25, 0.5, 0.75, 1} {
		s.Add(float64(i), y)
	}
	spark := s.Sparkline()
	runes := []rune(spark)
	if len(runes) != 5 {
		t.Fatalf("sparkline length %d", len(runes))
	}
	if runes[0] != '▁' || runes[4] != '█' {
		t.Fatalf("sparkline endpoints wrong: %s", spark)
	}
	// Monotone input ⇒ non-decreasing glyphs.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Fatalf("sparkline not monotone: %s", spark)
		}
	}
	flat := &Series{}
	flat.Add(0, 0.5)
	flat.Add(1, 0.5)
	if []rune(flat.Sparkline())[0] != '▄' {
		t.Fatalf("flat sparkline: %s", flat.Sparkline())
	}
	if (&Series{}).Sparkline() != "" {
		t.Fatal("empty sparkline should be empty")
	}
}

func TestFigureSparklines(t *testing.T) {
	f := &Figure{ID: "fig", Title: "demo"}
	s := f.AddSeries("acc")
	s.Add(0, 0.1)
	s.Add(1, 0.9)
	out := f.Sparklines()
	if !strings.Contains(out, "acc") || !strings.Contains(out, "0.100 → 0.900") {
		t.Fatalf("sparklines output:\n%s", out)
	}
}
