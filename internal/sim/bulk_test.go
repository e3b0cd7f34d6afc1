package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// dumpMachine renders every piece of timing-relevant machine state so
// the differential tests can assert the fast path leaves the machine
// bit-identical to the reference path — not just same-looking results.
// Pins and the L1 set generations are deliberately excluded: they are
// pure lookup accelerators whose contents never influence observable
// behaviour.
func dumpMachine(m *Machine) string {
	var sb strings.Builder
	ms := m.Mem
	dumpCache := func(name string, c *Cache) {
		fmt.Fprintf(&sb, "%s stats=%+v\n", name, c.Stats)
		for i := range c.tags {
			if ln := c.line(i); ln.valid {
				fmt.Fprintf(&sb, "  set=%d way=%d tag=%x dirty=%v nt=%v rank=%d\n",
					i/c.ways, i%c.ways, ln.tag, ln.dirty, ln.nt, ln.lru)
			}
		}
	}
	dumpCache("L1", ms.L1)
	dumpCache("L2", ms.L2)
	fmt.Fprintf(&sb, "TLB tick=%d stats=%+v\n", ms.TLB.tick, ms.TLB.Stats)
	for i, e := range ms.TLB.entries {
		if e.valid {
			fmt.Fprintf(&sb, "  tlb[%d] page=%x lru=%d\n", i, e.page, e.lru)
		}
	}
	b := ms.Bus
	fmt.Fprintf(&sb, "bus busy=%d row=%x hasRow=%v lastUse=%v stats=%+v\n",
		b.busyUntil, b.lastRow, b.hasRow, b.lastUse, b.Stats)
	fmt.Fprintf(&sb, "walkerBusy=%d wc=%+v memStats=%+v\n", ms.walkerBusy, ms.wc, ms.Stats)
	for i, pf := range ms.PF {
		fmt.Fprintf(&sb, "PF%d tick=%d streams=%+v stats=%+v pending=[", i, pf.tick, pf.streams, pf.Stats)
		pending := pf.pending.entries()
		lines := make([]Addr, 0, len(pending))
		for l := range pending {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
		for _, l := range lines {
			fmt.Fprintf(&sb, " %x:%d", l, pending[l])
		}
		fmt.Fprintf(&sb, " ]\n")
	}
	fmt.Fprintf(&sb, "epoch=%d\n", m.epoch)
	return sb.String()
}

// bulkScenario drives one machine through a scripted workload mixing
// bulk patterns with scalar traffic, and returns per-run summaries.
type bulkScenario struct {
	name string
	run  func(m *Machine, base Addr) []RunStats
}

func bulkScenarios() []bulkScenario {
	// All scenarios below allocate from a single large region whose
	// base the caller passes in, so both machines see identical
	// addresses.
	seqRefs := func(base Addr, elem, stride int, hint Hint) []BulkRef {
		return []BulkRef{
			{Base: base, Size: elem, Stride: stride, Write: false, Hint: hint},
			{Base: base + 1<<20, Size: elem, Stride: elem, Write: true, Hint: HintNone},
		}
	}
	return []bulkScenario{
		{"seq-gather-nt", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(4000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"seq-gather-temporal", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(4, 1, StateMemory)
				p.AccessBulk(4000, seqRefs(base, 8, 8, HintNone)...)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"strided-gather", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				// Record stride larger than the field: a strided walk
				// with both aligned and line-crossing field sizes.
				p.AccessBulk(1500, seqRefs(base+4, 12, 40, HintNonTemporal)...)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"nt-scatter-store", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(4000,
					BulkRef{Base: base + 2<<20, Size: 8, Stride: 8, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 8, Stride: 8, Write: true, Hint: HintNonTemporal})
				p.Drain()
				c.DrainWC()
			})
			return []RunStats{st}
		}},
		{"scatter-add", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(3000,
					BulkRef{Base: base + 2<<20, Size: 8, Stride: 8, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 8, Stride: 8, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 8, Stride: 8, Write: true, Hint: HintNone})
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"scatter-add-straddle", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				// A scatter-add over 24-byte records with a 16-byte
				// field group: every eighth record straddles two L1
				// lines, and its store finds both lines pinned by the
				// load just before it.
				p.AccessBulk(3000,
					BulkRef{Base: base + 2<<20, Size: 16, Stride: 16, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 16, Stride: 24, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 16, Stride: 24, Write: true, Hint: HintNone})
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"line-once", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(4, 1, StateMemory)
				// A declared pipe gathering one record from each of
				// 3000 lines in a scrambled order (an indexed gather
				// issued one element per call): each line is touched
				// once, so the fill pins of far more lines than the
				// pin table holds are evicted without serving a hit.
				for i := 0; i < 3000; i++ {
					line := Addr((i * 7919) % 4096)
					p.AccessBulk(1, BulkRef{Base: base + line*64 + 8, Size: 8, Write: i%4 == 0, Hint: HintNone})
				}
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"unaligned-odd-sizes", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(3, 2, StateMemory)
				// Misaligned base and a size that periodically crosses
				// both L1 lines and pages.
				p.AccessBulk(2000, BulkRef{Base: base + 3, Size: 24, Stride: 24, Write: false, Hint: HintNonTemporal})
				p.AccessBulk(2000, BulkRef{Base: base + 5, Size: 20, Stride: 52, Write: true, Hint: HintNonTemporal})
				p.Drain()
				c.DrainWC()
			})
			return []RunStats{st}
		}},
		{"bulk-interleaved-scalar", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				for rep := 0; rep < 8; rep++ {
					p.AccessBulk(300, seqRefs(base+Addr(rep*2400), 8, 8, HintNonTemporal)...)
					// Indexed-style scalar traffic between strips, reusing
					// pages the bulk pattern touched.
					for i := 0; i < 50; i++ {
						p.Access(base+Addr((i*7919)%40000), 8, i%3 == 0, HintNone)
					}
					c.Compute(500)
				}
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"two-ctx-overlap", func(m *Machine, base Addr) []RunStats {
			st := m.Run(
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					for rep := 0; rep < 6; rep++ {
						p.AccessBulk(500, seqRefs(base, 8, 8, HintNonTemporal)...)
						c.Compute(800)
					}
					p.Drain()
				},
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					for rep := 0; rep < 6; rep++ {
						p.AccessBulk(500,
							BulkRef{Base: base + 3<<20, Size: 8, Stride: 8, Write: true, Hint: HintNonTemporal})
						c.Compute(300)
					}
					p.Drain()
					c.DrainWC()
				})
			return []RunStats{st}
		}},
		{"two-ctx-shared-lines", func(m *Machine, base Addr) []RunStats {
			// Both contexts stream over the same region, so one
			// context's fills and evictions invalidate the other's
			// pinned lines mid-bulk.
			st := m.Run(
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					p.AccessBulk(3000, seqRefs(base, 8, 8, HintNone)...)
					p.Drain()
				},
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					p.AccessBulk(3000, seqRefs(base+64, 8, 8, HintNone)...)
					p.Drain()
				})
			return []RunStats{st}
		}},
		{"reset-between-runs", func(m *Machine, base Addr) []RunStats {
			var out []RunStats
			out = append(out, m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(1000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			}))
			m.ResetTiming()
			out = append(out, m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(1000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			}))
			m.ColdStart()
			out = append(out, m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(1000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			}))
			return out
		}},
	}
}

// TestAccessBulkMatchesReference is the fast path's oracle: for every
// scenario, a machine with the fast path enabled must end in exactly
// the same state — every cache line and its recency rank, TLB entry, bus
// reservation, WC buffer, prefetcher detector and statistic — as a
// machine that took the per-access reference path.
func TestAccessBulkMatchesReference(t *testing.T) {
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{
		{"pentium", PentiumD8300()},
		{"improved", ImprovedStream()},
	} {
		for _, sc := range bulkScenarios() {
			t.Run(cfg.name+"/"+sc.name, func(t *testing.T) {
				run := func(fast bool) (*Machine, []RunStats) {
					m := MustNew(cfg.cfg)
					m.SetFastPath(fast)
					base := m.AS.Alloc("work", 8<<20).Base
					return m, sc.run(m, base)
				}
				fastM, fastStats := run(true)
				refM, refStats := run(false)

				if got, want := fmt.Sprintf("%+v", fastStats), fmt.Sprintf("%+v", refStats); got != want {
					t.Errorf("RunStats diverge:\nfast: %s\nref:  %s", got, want)
				}
				fastSnap, refSnap := fastM.StatsSnapshot(), refM.StatsSnapshot()
				// Coverage counters record which path served each access,
				// so the fast/slow split legitimately differs between the
				// modes; the mode-invariant part — total accesses per
				// context — must agree, and every other block (including
				// the per-level bandwidth attribution) must be identical.
				for i := range fastSnap.Cov {
					if got, want := fastSnap.Cov[i].Accesses(), refSnap.Cov[i].Accesses(); got != want {
						t.Errorf("ctx%d coverage access totals diverge: fast %d, ref %d", i, got, want)
					}
				}
				fastSnap.Cov, refSnap.Cov = [2]CoverageStats{}, [2]CoverageStats{}
				if fastSnap != refSnap {
					t.Errorf("MachineStats diverge:\nfast: %+v\nref:  %+v", fastSnap, refSnap)
				}
				fastDump, refDump := dumpMachine(fastM), dumpMachine(refM)
				if fastDump != refDump {
					t.Errorf("machine state diverges:\n%s", firstDiff(fastDump, refDump))
				}
			})
		}
	}
}

// firstDiff returns the first differing line pair of two dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "<eof>", "<eof>"
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d:\nfast: %s\nref:  %s", i, av, bv)
		}
	}
	return "no textual diff (lengths equal?)"
}
