package exec

import (
	"strings"
	"testing"

	"streamgpp/internal/obs"
)

// Coverage attribution must account for every memory access of a
// stream run exactly once: the per-kind and the per-phase cells each
// sum to the machine's own per-context totals (waits and enqueues make
// no memory access, so nothing falls outside a task), and the DRAM
// bytes split by kind and by phase agree.
func TestCoverageAttributionSumsToRunTotals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		twoCtx  bool
		refPath bool
	}{
		{"2ctx", true, false},
		{"1ctx", false, false},
		{"2ctx-reference", true, true},
		{"1ctx-reference", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newFig2(20000, 8)
			r := obs.NewRegistry()
			s.m.SetObserver(r)
			cfg := Defaults()
			cfg.ReferencePath = tc.refPath
			if tc.twoCtx {
				mustRun2(t, s.m, compileFig2(t, s), cfg)
			} else {
				mustRun1(t, s.m, compileFig2(t, s), cfg)
			}

			var kindAcc, phaseAcc, kindDRAM, phaseDRAM float64
			for name, v := range r.Snapshot() {
				switch {
				case strings.HasPrefix(name, "coverage.kind.") && isAccessGauge(name):
					kindAcc += v.Value
				case strings.HasPrefix(name, "coverage.phase.") && isAccessGauge(name):
					phaseAcc += v.Value
				case strings.HasPrefix(name, "bw.kind.") && strings.HasSuffix(name, ".dram_bytes"):
					kindDRAM += v.Value
				case strings.HasPrefix(name, "bw.phase.") && strings.HasSuffix(name, ".dram_bytes"):
					phaseDRAM += v.Value
				}
			}
			var total uint64
			for ctx := 0; ctx < 2; ctx++ {
				c := s.m.Coverage(ctx)
				total += c.FastAccesses + c.SlowAccesses
			}
			if total == 0 || kindDRAM == 0 {
				t.Fatalf("run made no attributed accesses (total %d, DRAM bytes %v)", total, kindDRAM)
			}
			if kindAcc != phaseAcc {
				t.Errorf("accesses by kind %v != by phase %v", kindAcc, phaseAcc)
			}
			if kindAcc != float64(total) {
				t.Errorf("accesses by kind %v != run total %d", kindAcc, total)
			}
			if kindDRAM != phaseDRAM {
				t.Errorf("DRAM bytes by kind %v != by phase %v", kindDRAM, phaseDRAM)
			}
		})
	}
}

func isAccessGauge(name string) bool {
	return strings.HasSuffix(name, ".fast_accesses") || strings.HasSuffix(name, ".slow_accesses")
}
