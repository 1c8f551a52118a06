// Package trace provides the small result-recording vocabulary of the
// experiment harness: named (x, y) series grouped into figures, and string
// tables — both renderable as CSV and markdown so every paper artifact can
// be regenerated as text.
package trace

import (
	"fmt"
	"strings"
)

// Series is one named curve of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// FinalY returns the last y value (NaN-free series assumed); 0 when empty.
func (s *Series) FinalY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// YAtX returns the y of the last point whose x does not exceed the query,
// i.e. the step-function read-off used for "accuracy at cost C"
// comparisons. Returns 0 before the first point.
func (s *Series) YAtX(x float64) float64 {
	y := 0.0
	for i := range s.X {
		if s.X[i] <= x {
			y = s.Y[i]
		} else {
			break
		}
	}
	return y
}

// Figure is a collection of series with axis metadata, mirroring one figure
// of the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (f *Figure) Get(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// CSV renders the figure as long-form CSV: series,x,y.
func (f *Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "series,%s,%s\n", sanitize(f.XLabel), sanitize(f.YLabel))
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", sanitize(s.Name), s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// Summary renders one line per series: name, points, final y.
func (f *Figure) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s vs %s)\n", f.ID, f.Title, f.YLabel, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-16s %3d pts   final %s = %.4f\n", s.Name, s.Len(), f.YLabel, s.FinalY())
	}
	return b.String()
}

func sanitize(s string) string {
	return strings.NewReplacer(",", ";", "\n", " ").Replace(s)
}

// sanitizeMD neutralizes the characters that would break a markdown table
// cell: pipes become escaped pipes and newlines collapse to spaces.
func sanitizeMD(s string) string {
	return strings.NewReplacer("|", "\\|", "\r\n", " ", "\n", " ", "\r", " ").Replace(s)
}

// Table mirrors one table of the paper.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; the cell count must match the header.
func (t *Table) AddRow(cells ...string) {
	if len(t.Header) != 0 && len(cells) != len(t.Header) {
		panic(fmt.Sprintf("trace: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// CSV renders the table as CSV.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	b.WriteString(strings.Join(mapSlice(t.Header, sanitize), ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(mapSlice(row, sanitize), ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table. Cells
// and headers are sanitized like the CSV path: a literal | or newline in a
// cell must not change the table's shape.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s — %s**\n\n", sanitizeMD(t.ID), sanitizeMD(t.Title))
	b.WriteString("| " + strings.Join(mapSlice(t.Header, sanitizeMD), " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(mapSlice(row, sanitizeMD), " | ") + " |\n")
	}
	return b.String()
}

func mapSlice(xs []string, f func(string) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// sparkRunes are the eight block heights used by Sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series' y-values as a unicode block strip, scaled to
// the series' own [min, max]. A flat series renders as mid-height blocks.
func (s *Series) Sparkline() string {
	if s.Len() == 0 {
		return ""
	}
	lo, hi := s.Y[0], s.Y[0]
	for _, y := range s.Y[1:] {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	out := make([]rune, s.Len())
	for i, y := range s.Y {
		level := 3 // flat series: mid height
		if hi > lo {
			level = int((y - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		out[i] = sparkRunes[level]
	}
	return string(out)
}

// Sparklines renders every series of the figure as name-prefixed sparkline
// rows — a terminal-friendly glance at the curves.
func (f *Figure) Sparklines() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-16s %s  (%.3f → %.3f)\n", s.Name, s.Sparkline(), firstY(s), s.FinalY())
	}
	return b.String()
}

func firstY(s *Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[0]
}
