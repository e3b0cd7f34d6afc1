package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// smokeRun runs one workload at 1/50 of its problem sizes.
func smokeRun(t *testing.T, workload string, seed int64, trace bool) report {
	t.Helper()
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: workload, seed: seed, seconds: 1, trace: trace, div: 50, out: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := runWorkload(ctx, o, golden, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", workload, rep.Correct, rep.Failed, rep.Attempted)
	}
	return rep
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, g.Value)
		}
	}
}

// TestWorkloadsReportEveryMetric runs every workload, untraced and
// traced, and checks that each completes with every output correct and
// prints every metric BENCHMARK.json names, with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		checkMetrics(t, w.Name, smokeRun(t, w.Name, 1, false).Metrics, spec.EndToEnd)
		checkMetrics(t, w.Name+" traced", smokeRun(t, w.Name, 1, true).Metrics, spec.PerLayer)
	}
}

// TestSeedChangesInputsNotMetricSet checks that the seed reaches the
// generated inputs, so the simulated cycles change, while the metric
// set stays the same.
func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	a := smokeRun(t, "sim-irregular", 1, true)
	b := smokeRun(t, "sim-irregular", 2, true)
	if a.Metrics["sim.stream_cycles"].Value == b.Metrics["sim.stream_cycles"].Value {
		t.Errorf("seeds 1 and 2 both simulate %v stream cycles", a.Metrics["sim.stream_cycles"].Value)
	}
	if na, nb := names(a.Metrics), names(b.Metrics); !slices.Equal(na, nb) {
		t.Errorf("metric sets differ: %v vs %v", na, nb)
	}
}

// TestGoldenCyclesChecked checks that a run whose simulated cycles do
// not match the recorded ones reports failed operations.
func TestGoldenCyclesChecked(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := golden.lookup(50, "sim-coalesced", 1)
	if want == nil {
		t.Fatal("no golden cycles recorded for sim-coalesced seed 1 at div 50")
	}
	for app, c := range want {
		want[app] = [2]uint64{c[0] + 1, c[1]}
	}
	o := options{workload: "sim-coalesced", seed: 1, seconds: 1, div: 50, out: t.TempDir()}
	rep, err := runWorkload(context.Background(), o, golden, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("altered golden cycles went unnoticed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
