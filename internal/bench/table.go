// Package bench regenerates every figure of the paper's evaluation:
// the memory-bandwidth characterisation (Fig. 5), the SMT overlap
// experiment (Fig. 6), the busy-waiting comparison (Fig. 8), the
// micro-benchmark sweeps (Fig. 9) and the four application studies
// (Fig. 11(a)–(d)). Each experiment prints the same rows/series the
// paper reports, annotated with the paper's expectation, so
// paper-vs-measured comparisons are mechanical.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a runnable figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options) error
}

// Experiments lists every figure reproduction in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig5", "Fig. 5: gather/scatter bandwidth vs record size", Fig5},
		{"fig6", "Fig. 6: computation/memory SMT overlap", Fig6},
		{"fig8", "Fig. 8: PAUSE vs MONITOR/MWAIT busy-waiting", Fig8},
		{"fig9", "Fig. 9: micro-benchmark speedups vs COMP", Fig9},
		{"fig11a", "Fig. 11(a): streamFEM", Fig11a},
		{"fig11b", "Fig. 11(b): streamCDP", Fig11b},
		{"fig11c", "Fig. 11(c): neo-hookean", Fig11c},
		{"fig11d", "Fig. 11(d): streamSPAS", Fig11d},
		{"stalls", "Stall attribution and overlap (double buffering on/off)", Stalls},
	}
}

// ExtraExperiments lists runnable workloads that are not part of the
// paper's evaluation — they are addressable by ID but excluded from
// "all", so the nine-figure output stays byte-stable across releases.
func ExtraExperiments() []Experiment {
	return []Experiment{
		{"quickstart", "Quickstart: the documentation's worked example", Quickstart},
	}
}

// ByID returns the experiment with the given id, searching the paper
// figures first, then the extras.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range ExtraExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
