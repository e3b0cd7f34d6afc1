package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestExperimentsListedAndRunnable(t *testing.T) {
	exps := Experiments()
	if len(exps) != 9 {
		t.Fatalf("want 9 experiments, got %d", len(exps))
	}
	wantIDs := []string{"fig5", "fig6", "fig8", "fig9", "fig11a", "fig11b", "fig11c", "fig11d", "stalls"}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Fatalf("experiment %d is %s, want %s", i, exps[i].ID, id)
		}
		e, ok := ByID(id)
		if !ok || e.ID != id {
			t.Fatalf("ByID(%s) failed", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted an unknown id")
	}
}

// Every experiment must run in quick mode and produce a table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") || !strings.Contains(out, "paper") {
				t.Fatalf("%s produced no annotated table:\n%s", e.ID, out)
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"col", "value"},
	}
	tab.AddRow("a", "1")
	tab.AddRow("longer-label", "2")
	tab.Note("a note with %d args", 1)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "col", "longer-label", "note: a note with 1 args"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: the header and first row's second column start at
	// the same offset.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatal("too few lines")
	}
	if strings.Index(lines[0+1], "value") != strings.Index(lines[2+1], "1") {
		// lines[1] is the header (line 0 is the title).
		t.Log(out)
	}
}

func TestBandwidthProbeDeterministic(t *testing.T) {
	p := BandwidthProbe{RecordBytes: 32, Random: true, TotalBytes: 2 << 20}
	a, b := p.Run(), p.Run()
	if a != b {
		t.Fatalf("probe nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("probe bandwidth %v", a)
	}
}

func TestBandwidthProbeOrdering(t *testing.T) {
	seq := BandwidthProbe{RecordBytes: 4, TotalBytes: 2 << 20}.Run()
	rnd := BandwidthProbe{RecordBytes: 4, Random: true, TotalBytes: 2 << 20}.Run()
	if rnd >= seq {
		t.Fatalf("random (%v) >= sequential (%v)", rnd, seq)
	}
}

func TestFig5QuickWritesFourPanels(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "== Fig. 5"); n != 4 {
		t.Fatalf("want 4 panels, got %d", n)
	}
}

func TestFig6Bounds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := Fig6(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := Fig8(io.Discard, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
}
