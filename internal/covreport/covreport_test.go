package covreport

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"streamgpp/internal/apps"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runCoverage runs one micro-benchmark the way the CLI does (registry
// attached via the sim default) in the given fast-path mode and
// returns the derived coverage report plus the raw flattened metrics.
func runCoverage(t *testing.T, app string, fast bool) (Report, map[string]float64) {
	t.Helper()
	reg := obs.NewRegistry()
	sim.SetDefaultObserver(reg)
	defer sim.SetDefaultObserver(nil)

	a, ok := apps.ByName(app)
	if !ok {
		t.Fatalf("no app %q", app)
	}
	ecfg := exec.Defaults()
	ecfg.ReferencePath = !fast
	res, err := a.Run(apps.Params{N: 40000, Comp: 1, Seed: 1}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := obs.FlattenSnapshot(reg.Snapshot())
	return New(flat, res.Stream.Cycles, sim.PentiumD8300()), flat
}

// jsonShape flattens a marshalled JSON value into its sorted key paths
// (array indices collapsed to []), so the golden pins the -coverage
// -json schema — field names and nesting — without pinning workload
// numbers.
func jsonShape(v any) []string {
	var walk func(prefix string, v any, out *[]string)
	walk = func(prefix string, v any, out *[]string) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(prefix+"."+k, x[k], out)
			}
		case []any:
			if len(x) > 0 {
				walk(prefix+"[]", x[0], out)
			} else {
				*out = append(*out, prefix+"[]")
			}
		default:
			*out = append(*out, prefix)
		}
	}
	var out []string
	walk("", v, &out)
	sort.Strings(out)
	return out
}

// TestCoverageJSONSchemaGolden pins the -coverage -json object's shape:
// every bail reason key is always present, the bandwidth rows cover
// every level, and field renames fail loudly. Regenerate with -update.
func TestCoverageJSONSchemaGolden(t *testing.T) {
	rep, _ := runCoverage(t, "GAT-SCAT-COMP", true)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var parsed any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(jsonShape(parsed), "\n") + "\n"

	golden := filepath.Join("testdata", "coverage_schema.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("-coverage -json schema changed:\ngot:\n%s\nwant:\n%s\n(re-run with -update if intended)", got, want)
	}

	// The schema must enumerate the full bail taxonomy even when a
	// reason never fired — consumers key on the fixed map.
	for _, r := range sim.BailReasons() {
		if _, ok := rep.Bails[r.String()]; !ok {
			t.Errorf("bails map missing reason %q", r)
		}
	}
	if len(rep.Bandwidth.Levels) != len(obs.BandwidthLevels) {
		t.Errorf("bandwidth rows = %d, want %d", len(rep.Bandwidth.Levels), len(obs.BandwidthLevels))
	}
}

// TestCoverageDifferentialFastOnOff runs the same workload in both
// fast-path modes: the coverage split must reflect the mode (that is
// the profiler's whole point), while the mode-invariant facts — access
// totals, element splits and every bandwidth figure — must be
// byte-identical.
func TestCoverageDifferentialFastOnOff(t *testing.T) {
	// LD-ST-COMP streams sequentially (exercising AccessBulk and its
	// disabled-mode bail); GAT-SCAT-COMP is indexed through a random
	// permutation, which defeats run coalescing entirely — the adaptive
	// fast path must then stay out of the way (zero probes, zero fast
	// accesses) and attribute every element to the indexed bail.
	for _, app := range []string{"LD-ST-COMP", "GAT-SCAT-COMP"} {
		t.Run(app, func(t *testing.T) {
			on, onFlat := runCoverage(t, app, true)
			off, offFlat := runCoverage(t, app, false)

			if app == "LD-ST-COMP" {
				if on.FastAccesses == 0 || on.FastPct == 0 {
					t.Errorf("fast-on run reports no fast-path coverage: %+v", on)
				}
			} else {
				// A pure permutation has no constant-delta runs: the
				// profiler must show all indexed elements bailing, and —
				// because probing un-coalescible traffic is pure tax —
				// no fast accesses at all.
				if on.FastAccesses != 0 {
					t.Errorf("fast-on run probed un-coalescible indexed traffic: %+v", on)
				}
				if on.IndexedElems == 0 || on.Bails["indexed"] != float64(on.IndexedElems) {
					t.Errorf("indexed elements not fully attributed: elems=%v bails=%v",
						on.IndexedElems, on.Bails["indexed"])
				}
			}
			if off.FastAccesses != 0 || off.FastPct != 0 {
				t.Errorf("fast-off run reports fast-path coverage: fast=%v pct=%v", off.FastAccesses, off.FastPct)
			}
			if app == "LD-ST-COMP" && off.Bails["disabled"] == 0 {
				t.Error("fast-off sequential run did not count BailDisabled")
			}
			if got, want := on.FastAccesses+on.SlowAccesses, off.FastAccesses+off.SlowAccesses; got != want {
				t.Errorf("access totals diverge: fast-on %v, fast-off %v", got, want)
			}
			if on.SeqElems != off.SeqElems || on.IndexedElems != off.IndexedElems {
				t.Errorf("element splits diverge: on(%v,%v) off(%v,%v)",
					on.SeqElems, on.IndexedElems, off.SeqElems, off.IndexedElems)
			}
			if !reflect.DeepEqual(on.Arrays, off.Arrays) {
				t.Errorf("per-array traffic diverges:\non:  %+v\noff: %+v", on.Arrays, off.Arrays)
			}
			if !reflect.DeepEqual(on.Bandwidth, off.Bandwidth) {
				t.Errorf("bandwidth attribution diverges:\non:  %+v\noff: %+v", on.Bandwidth, off.Bandwidth)
			}
			for k, v := range onFlat {
				if !strings.HasPrefix(k, "bw.") {
					continue
				}
				if ov, ok := offFlat[k]; !ok || ov != v {
					t.Errorf("bw metric %q diverges: fast-on %v, fast-off %v", k, v, offFlat[k])
				}
			}
		})
	}
}

// TestCoverageRenderNamesDominantBail checks the text report names the
// dominant bail reason and the roofline line — the two facts the
// coverage smoke in scripts/check.sh greps for.
func TestCoverageRenderNamesDominantBail(t *testing.T) {
	rep, _ := runCoverage(t, "GAT-SCAT-COMP", true)
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	if rep.DominantBail == "" {
		t.Fatal("gatscat run has no dominant bail reason")
	}
	if !strings.Contains(out, "dominant bail: "+rep.DominantBail) {
		t.Errorf("render does not name dominant bail %q:\n%s", rep.DominantBail, out)
	}
	if !strings.Contains(out, "roofline") {
		t.Errorf("render missing roofline summary:\n%s", out)
	}
	if rep.Bandwidth.DRAMBytes() == 0 {
		t.Error("run attributed no DRAM bytes")
	}
}

func TestDominantBailTieBreak(t *testing.T) {
	bails := map[string]float64{"no_pin": 5, "indexed": 5, "wc_state": 4}
	// Ties go to the earlier reason in declaration order: indexed (1)
	// beats no_pin (6).
	if got := dominantBail(bails); got != "indexed" {
		t.Errorf("dominantBail = %q, want indexed", got)
	}
	if got := dominantBail(map[string]float64{}); got != "" {
		t.Errorf("dominantBail on empty = %q, want empty", got)
	}
}
