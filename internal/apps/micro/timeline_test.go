package micro

import (
	"strings"
	"testing"

	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// sampleRun executes one micro-benchmark with a fresh timeline attached
// and returns the timeline's deterministic text dump.
func sampleRun(t *testing.T, name string, run func(Params, exec.Config) (Result, error), fastPath bool) string {
	t.Helper()
	tl := obs.NewTimeline(2000)
	ecfg := exec.Defaults()
	ecfg.Timeline = tl
	ecfg.ReferencePath = !fastPath

	if _, err := run(Params{N: 30000, Comp: 1, Seed: 3}, ecfg); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	if _, err := tl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The timeline's byte-identity claim: identical seeds and configuration
// produce byte-identical sampled series whether the bulk fast path is
// on or off. The sampling sites are chosen so both modes visit them
// with identical clocks (DRAM misses and Drain always take the
// reference path; task boundaries are mode-invariant), and this test
// enforces that end to end over a sequential and an irregular workload.
func TestTimelineByteIdenticalAcrossFastPath(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(Params, exec.Config) (Result, error)
	}{{"QUICKSTART", RunQuickstart}, {"GAT-SCAT-COMP", RunGATSCAT}} {
		fast := sampleRun(t, c.name, c.run, true)
		slow := sampleRun(t, c.name, c.run, false)
		if fast != slow {
			t.Errorf("%s: timeline differs across fast-path modes\nfast:\n%s\nreference:\n%s",
				c.name, fast, slow)
		}
		if !strings.Contains(fast, `series "srf occupancy"`) ||
			!strings.Contains(fast, `series "mlp outstanding"`) ||
			!strings.Contains(fast, `series "wq mem pending"`) ||
			!strings.Contains(fast, `series "overlap efficiency"`) {
			t.Errorf("%s: timeline missing expected series:\n%s", c.name, fast)
		}
	}
}

// Repeating an identical run must reproduce the identical dump — the
// determinism the regression gate's config hashing assumes.
func TestTimelineDeterministicAcrossRuns(t *testing.T) {
	a := sampleRun(t, "QUICKSTART", RunQuickstart, true)
	b := sampleRun(t, "QUICKSTART", RunQuickstart, true)
	if a != b {
		t.Errorf("timeline differs across identical runs:\n%s\nvs:\n%s", a, b)
	}
}

// A run without a timeline must not create one implicitly: the nil
// default is the zero-cost path the benchmarks rely on.
func TestNoTimelineByDefault(t *testing.T) {
	m := sim.MustNew(sim.PentiumD8300())
	if m.Timeline() != nil {
		t.Fatal("new machine has a timeline attached")
	}
}
