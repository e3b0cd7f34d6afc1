package svm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// TestBulkOpsFastPathMatchesReference sweeps every bulk-operation shape
// — {sequential, strided, indexed} × {temporal, non-temporal} × {load,
// store, scatter-add} — and asserts that the simulator's bulk fast path
// reports exactly the cycles, MachineStats and obs-registry contents of
// the per-access reference path.
func TestBulkOpsFastPathMatchesReference(t *testing.T) {
	type variant struct {
		pattern string // "seq", "strided", "indexed"
		hint    sim.Hint
		op      string // "load", "store", "scatter-add"
	}
	var variants []variant
	for _, pattern := range []string{"seq", "strided", "indexed"} {
		for _, hint := range []sim.Hint{sim.HintNone, sim.HintNonTemporal} {
			for _, op := range []string{"load", "store", "scatter-add"} {
				variants = append(variants, variant{pattern, hint, op})
			}
		}
	}

	const n = 3000
	runOne := func(v variant, fast bool) (uint64, sim.MachineStats, obs.Snapshot) {
		m := sim.MustNew(sim.PentiumD8300())
		m.SetFastPath(fast)
		reg := obs.NewRegistry()
		m.SetObserver(reg)

		layout := Layout("rec", F("a", 8), F("b", 8), F("pad", 8))
		if v.pattern == "strided" {
			layout = layout.WithStride(56)
		}
		arr := NewArray(m, "arr", layout, 2*n)
		srf := DefaultSRF(m)
		buf, err := srf.Alloc("strip", 16*n)
		if err != nil {
			t.Fatal(err)
		}
		str := NewStream("s", n, F("a", 8), F("b", 8))
		for i := 0; i < n; i++ {
			str.Set(i, 0, float64(2*i))
			str.Set(i, 1, float64(2*i+1))
		}
		var idx *IndexArray
		if v.pattern == "indexed" {
			idx = NewIndexArray(m, "idx", n)
			for i := range idx.Idx {
				idx.Idx[i] = int32((i * 7919) % (2 * n)) // deterministic pseudo-random
			}
		}

		cfg := DefaultOps()
		cfg.Hint = v.hint
		fields := []int{0, 1}

		stats := m.Run(func(c *sim.CPU) {
			switch v.op {
			case "load":
				Gather(c, cfg, str, 0, arr, fields, 17, idx, 0, n, buf)
			case "store":
				Scatter(c, cfg, str, 0, arr, fields, 17, idx, 0, n, ModeStore, buf)
			case "scatter-add":
				Scatter(c, cfg, str, 0, arr, fields, 17, idx, 0, n, ModeAdd, buf)
			}
		})
		return stats.Cycles, m.StatsSnapshot(), reg.Snapshot()
	}

	for _, v := range variants {
		name := fmt.Sprintf("%s-%s-%s", v.pattern, hintName(v.hint), v.op)
		t.Run(name, func(t *testing.T) {
			fc, fs, fr := runOne(v, true)
			rc, rs, rr := runOne(v, false)
			if fc != rc {
				t.Errorf("cycles diverge: fast=%d ref=%d", fc, rc)
			}
			// Coverage counters record which path served each access and
			// legitimately differ between the modes; their mode-invariant
			// total must agree, and everything else — including every
			// bw.* bandwidth gauge — must be identical.
			for i := range fs.Cov {
				if got, want := fs.Cov[i].Accesses(), rs.Cov[i].Accesses(); got != want {
					t.Errorf("ctx%d coverage access totals diverge: fast %d, ref %d", i, got, want)
				}
			}
			fs.Cov, rs.Cov = [2]sim.CoverageStats{}, [2]sim.CoverageStats{}
			if fs != rs {
				t.Errorf("MachineStats diverge:\nfast: %+v\nref:  %+v", fs, rs)
			}
			ftot := fr["coverage.fast_accesses"].Value + fr["coverage.slow_accesses"].Value
			rtot := rr["coverage.fast_accesses"].Value + rr["coverage.slow_accesses"].Value
			if ftot != rtot {
				t.Errorf("coverage access totals diverge in registry: fast %v, ref %v", ftot, rtot)
			}
			for k := range fr {
				if strings.HasPrefix(k, "coverage.") {
					delete(fr, k)
					delete(rr, k)
				}
			}
			if !reflect.DeepEqual(fr, rr) {
				t.Errorf("obs snapshots diverge:\nfast: %v\nref:  %v", fr, rr)
			}
		})
	}
}

func hintName(h sim.Hint) string {
	if h == sim.HintNonTemporal {
		return "nt"
	}
	return "temporal"
}
