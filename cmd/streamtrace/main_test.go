package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"streamgpp/internal/apps"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceJSON mirrors the trace_event schema enough to audit a trace.
type traceJSON struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// quickstartTrace runs the quickstart app the way the CLI does —
// registry attached through Params.Observer, timeline via the run's
// exec.Config — and returns the Perfetto export.
func quickstartTrace(t *testing.T) []byte {
	t.Helper()
	tl := obs.NewTimeline(obs.DefaultSampleInterval)

	tr := &exec.Trace{}
	ecfg := exec.Defaults()
	ecfg.Trace = tr
	ecfg.Timeline = tl
	res, err := micro.RunQuickstart(micro.Params{N: 60000, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfettoTimeline(&buf, res.Name, sim.PentiumD8300().FreqHz/1e6, tl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQuickstartTraceRoundTrip is the golden-file test of the
// streamtrace export path: the quickstart trace must parse back through
// encoding/json, its counter tracks must match testdata/
// quickstart_tracks.golden, and every counter track's timestamps must
// be strictly monotone (Perfetto silently mis-renders unsorted counter
// samples). Run with -update to regenerate the golden file.
func TestQuickstartTraceRoundTrip(t *testing.T) {
	raw := quickstartTrace(t)

	var parsed traceJSON
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("trace does not round-trip through json.Unmarshal: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	counterTs := map[string][]float64{}
	sliceCount := 0
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "C":
			counterTs[e.Name] = append(counterTs[e.Name], e.Ts)
		case "X":
			sliceCount++
		}
	}
	if sliceCount == 0 {
		t.Error("trace has no task slices")
	}
	if len(counterTs) < 4 {
		t.Errorf("trace has %d counter tracks, want >= 4: %v", len(counterTs), counterNames(counterTs))
	}
	for name, ts := range counterTs {
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Errorf("counter %q: non-monotone timestamps %v <= %v at index %d",
					name, ts[i], ts[i-1], i)
				break
			}
		}
	}

	got := strings.Join(counterNames(counterTs), "\n") + "\n"
	golden := filepath.Join("testdata", "quickstart_tracks.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("counter track names changed:\ngot:\n%s\nwant:\n%s\n(re-run with -update if intended)", got, want)
	}
}

func counterNames(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestQuickstartTraceWithoutTimeline checks the sampling-off export
// still parses and keeps its original single counter track — the
// compatibility mode the pre-timeline tooling expects.
func TestQuickstartTraceWithoutTimeline(t *testing.T) {
	tr := &exec.Trace{}
	ecfg := exec.Defaults()
	ecfg.Trace = tr
	res, err := micro.RunQuickstart(micro.Params{N: 30000, Comp: 1, Seed: 1}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf, res.Name, 0); err != nil {
		t.Fatal(err)
	}
	var parsed traceJSON
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if e.Ph == "C" {
			names[e.Name] = true
		}
	}
	if len(names) != 1 || !names["wq depth"] {
		t.Errorf("sampling-off trace counter tracks = %v, want just %q", names, "wq depth")
	}
}

// TestAppsListIncludesQuickstart pins the CLI surface: -app must offer
// the quickstart workload the docs reference.
func TestAppsListIncludesQuickstart(t *testing.T) {
	a, ok := apps.ByKey("quickstart")
	if !ok {
		t.Fatal("app registry has no quickstart entry")
	}
	if a.Name != "QUICKSTART" || !a.Micro {
		t.Fatalf("quickstart app is %q (micro %v), want the QUICKSTART micro-benchmark", a.Name, a.Micro)
	}
	found := false
	for _, k := range apps.Keys() {
		found = found || k == "quickstart"
	}
	if !found {
		t.Fatalf("-app choices %v do not list quickstart", apps.Keys())
	}
}
