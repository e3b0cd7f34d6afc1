package bench

import (
	"bytes"
	"strings"
	"testing"

	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// renderAll runs every experiment with the given options and returns
// the concatenated tables.
func renderAll(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RunAll(&buf, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The two orthogonal equivalence claims of the simulator's fast path,
// checked over every experiment end to end:
//
//  1. The bulk fast path must not change a single simulated cycle:
//     every experiment renders byte-identically with it on and off.
//  2. The parallel runner must not change a single output byte:
//     RunAll at high parallelism matches the serial run.
//  3. The coverage profiler's bandwidth attribution (bw.* gauges) must
//     also be byte-identical across the modes — the fast path may take
//     different branches, but it must attribute the same traffic —
//     while the coverage split itself legitimately differs, with only
//     its access total mode-invariant.
//
// Quick mode keeps the sweep affordable; the per-access differential
// tests in internal/sim and internal/svm cover the full pattern space.
func TestFastPathAndParallelRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment three times")
	}
	defer sim.SetDefaultObserver(nil)

	regOn := obs.NewRegistry()
	sim.SetDefaultObserver(regOn)
	ref := renderAll(t, Options{Quick: true, Parallelism: 1})
	sim.SetDefaultObserver(nil)

	parallel := renderAll(t, Options{Quick: true, Parallelism: 8})
	if !bytes.Equal(ref, parallel) {
		t.Errorf("parallel run differs from serial run:\nserial:\n%s\nparallel:\n%s", ref, parallel)
	}

	regOff := obs.NewRegistry()
	sim.SetDefaultObserver(regOff)
	slow := renderAll(t, Options{Quick: true, Parallelism: 1, ReferencePath: true})
	sim.SetDefaultObserver(nil)
	if !bytes.Equal(ref, slow) {
		t.Errorf("fast path changes results:\nfast:\n%s\nreference:\n%s", ref, slow)
	}

	// Both serial sweeps ran the same experiments in the same order, so
	// their final gauge values must agree wherever the metric is
	// mode-invariant: every bw.* bandwidth gauge exactly, and the
	// coverage access total (fast + slow) even though the split moves.
	on := obs.FlattenSnapshot(regOn.Snapshot())
	off := obs.FlattenSnapshot(regOff.Snapshot())
	bwKeys := 0
	for k, v := range on {
		if !strings.HasPrefix(k, "bw.") {
			continue
		}
		bwKeys++
		if ov, ok := off[k]; !ok || ov != v {
			t.Errorf("bw metric %q diverges across fast-path modes: fast %v, ref %v", k, v, off[k])
		}
	}
	if bwKeys == 0 {
		t.Error("sweep published no bw.* metrics")
	}
	onTotal := on["coverage.fast_accesses"] + on["coverage.slow_accesses"]
	offTotal := off["coverage.fast_accesses"] + off["coverage.slow_accesses"]
	if onTotal == 0 || onTotal != offTotal {
		t.Errorf("coverage access totals diverge: fast %v, ref %v", onTotal, offTotal)
	}
	if on["coverage.fast_accesses"] == 0 {
		t.Error("fast-on sweep reports no fast-path accesses")
	}
	if off["coverage.fast_accesses"] != 0 {
		t.Error("fast-off sweep reports fast-path accesses")
	}
}
