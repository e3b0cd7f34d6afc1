package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTLBHitAfterInstall(t *testing.T) {
	tlb := NewTLB(4, 4096)
	if tlb.Translate(0x1000) {
		t.Fatal("hit in empty TLB")
	}
	if !tlb.Translate(0x1fff) {
		t.Fatal("miss within installed page")
	}
	if tlb.Translate(0x2000) {
		t.Fatal("hit in uninstalled page")
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := NewTLB(2, 4096)
	tlb.Translate(0x0000) // page 0
	tlb.Translate(0x1000) // page 1
	tlb.Translate(0x0000) // touch page 0: page 1 is LRU
	tlb.Translate(0x2000) // evicts page 1
	if !tlb.Translate(0x0000) {
		t.Fatal("page 0 evicted out of LRU order")
	}
	if tlb.Translate(0x1000) {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestTLBCoverage(t *testing.T) {
	tlb := NewTLB(64, 4096)
	if got := tlb.Coverage(); got != 64*4096 {
		t.Fatalf("coverage %d", got)
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(4, 4096)
	tlb.Translate(0)
	tlb.Flush()
	if tlb.Translate(0) {
		t.Fatal("hit after flush")
	}
}

func TestTLBStats(t *testing.T) {
	tlb := NewTLB(4, 4096)
	tlb.Translate(0)
	tlb.Translate(0)
	tlb.Translate(4096)
	if tlb.Stats.Hits != 1 || tlb.Stats.Misses != 2 {
		t.Fatalf("stats %+v", tlb.Stats)
	}
}

// Property: within capacity, every installed page stays resident.
func TestTLBNoSpuriousEvictions(t *testing.T) {
	f := func(pages []uint8) bool {
		tlb := NewTLB(256, 4096)
		seen := map[uint64]bool{}
		for _, p := range pages {
			addr := uint64(p) * 4096
			hit := tlb.Translate(addr)
			if seen[uint64(p)] && !hit {
				return false // evicted despite fitting (≤256 distinct pages)
			}
			seen[uint64(p)] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// scanTLB is the linear-scan LRU TLB that the indexed one replaced,
// kept as the oracle for it: a hit restamps the entry, a miss installs
// into the first invalid entry or else the lowest-index entry with the
// smallest lru.
type scanTLB struct {
	entries   []tlbEntry
	tick, gen uint64
	Stats     TLBStats
}

func (t *scanTLB) Translate(addr Addr) bool {
	page := addr >> 12
	t.tick++
	victim, best := 0, uint64(1<<64-1)
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lru = t.tick
			t.Stats.Hits++
			return true
		}
		score := e.lru
		if !e.valid {
			score = 0
		}
		if score < best {
			best, victim = score, i
		}
	}
	t.Stats.Misses++
	t.entries[victim] = tlbEntry{page: page, valid: true, lru: t.tick}
	t.gen++
	return false
}

// probe returns the index of the entry mapping page, or -1.
func (t *scanTLB) probe(page uint64) int {
	for i, e := range t.entries {
		if e.valid && e.page == page {
			return i
		}
	}
	return -1
}

func (t *scanTLB) Flush() {
	clear(t.entries)
	t.gen++
}

// diffTLB drives an indexed TLB and the scan oracle through the same
// random mix of translations, probes, fast-path-style stamps (single
// and closed-form batches, as bulk.go issues them) and flushes over a
// working set of ws pages, comparing them as it goes.
func diffTLB(t *testing.T, entries, ws, steps int, rng *rand.Rand) {
	t.Helper()
	got := NewTLB(entries, 4096)
	want := &scanTLB{entries: make([]tlbEntry, entries)}
	for step := 0; step < steps; step++ {
		page := uint64(rng.Intn(ws))
		switch op := rng.Intn(16); {
		case op < 10:
			addr := page<<12 | Addr(rng.Intn(4096))
			if g, w := got.Translate(addr), want.Translate(addr); g != w {
				t.Fatalf("step %d: Translate(page %d) hit=%v, oracle %v", step, page, g, w)
			}
		case op < 12:
			g, w := got.probe(page), want.probe(page)
			if (g == nil) != (w < 0) || (w >= 0 && g != &got.entries[w]) {
				t.Fatalf("step %d: probe(page %d) disagrees with oracle entry %d", step, page, w)
			}
		case op < 13:
			if w := want.probe(page); w >= 0 {
				got.tick++
				want.tick++
				got.touch(got.probe(page), got.tick)
				want.entries[w].lru = want.tick
				got.Stats.Hits++
				want.Stats.Hits++
			}
		case op < 15:
			// A closed-form batch: k iterations of nrefs resident refs,
			// stamped with each ref's last access in ref order.
			k, nrefs := uint64(1+rng.Intn(8)), 1+rng.Intn(4)
			tick0 := got.tick
			for r := 0; r < nrefs; r++ {
				w := want.probe(uint64(rng.Intn(ws)))
				if w < 0 {
					continue
				}
				stamp := tick0 + (k-1)*uint64(nrefs) + uint64(r) + 1
				got.touch(got.probe(want.entries[w].page), stamp)
				want.entries[w].lru = stamp
			}
			got.tick += k * uint64(nrefs)
			want.tick += k * uint64(nrefs)
		default:
			if rng.Intn(8) == 0 {
				got.Flush()
				want.Flush()
			}
		}
		if got.Stats != want.Stats || got.tick != want.tick || got.gen != want.gen {
			t.Fatalf("step %d: stats %+v tick %d gen %d, oracle %+v tick %d gen %d",
				step, got.Stats, got.tick, got.gen, want.Stats, want.tick, want.gen)
		}
		if step%8 == 0 || step == steps-1 {
			checkTLBState(t, step, got, want)
		}
	}
}

// checkTLBState compares every entry with the oracle's and checks the
// index and recency list without disturbing them: every valid entry is
// indexed; the list holds exactly the valid entries; the entries not
// yet caught up run head to tail in strictly decreasing lru; and every
// queued entry, which the next miss moves to the front, is newer than
// all of those.
func checkTLBState(t *testing.T, step int, got *TLB, want *scanTLB) {
	t.Helper()
	valid, queued := 0, 0
	for i, w := range want.entries {
		g := got.entries[i]
		if g.valid != w.valid || (w.valid && (g.page != w.page || g.lru != w.lru)) {
			t.Fatalf("step %d: entry %d = {page %d valid %v lru %d}, oracle {page %d valid %v lru %d}",
				step, i, g.page, g.valid, g.lru, w.page, w.valid, w.lru)
		}
		if w.valid {
			valid++
			if got.find(w.page) != int32(i) {
				t.Fatalf("step %d: index does not map page %d to entry %d", step, w.page, i)
			}
		}
		if g.queued {
			queued++
		}
	}
	if got.filled != valid {
		t.Fatalf("step %d: filled %d, %d valid entries", step, got.filled, valid)
	}
	if queued != len(got.touched) {
		t.Fatalf("step %d: %d queued entries, %d on touched", step, queued, len(got.touched))
	}
	oldestQueued := uint64(1<<64 - 1)
	for _, i := range got.touched {
		if e := got.entries[i]; !e.queued || !e.valid {
			t.Fatalf("step %d: touched entry %d is not a queued valid entry", step, i)
		} else if e.lru < oldestQueued {
			oldestQueued = e.lru
		}
	}
	n, prev, prevLRU := 0, int32(-1), uint64(1<<64-1)
	for i := got.head; i >= 0; prev, i = i, got.entries[i].next {
		e := got.entries[i]
		if !e.valid || e.prev != prev {
			t.Fatalf("step %d: recency list broken at entry %d", step, i)
		}
		if !e.queued {
			if e.lru >= prevLRU || e.lru >= oldestQueued {
				t.Fatalf("step %d: recency list out of lru order at entry %d", step, i)
			}
			prevLRU = e.lru
		}
		if n++; n > valid {
			t.Fatalf("step %d: recency list longer than %d valid entries", step, valid)
		}
	}
	if n != valid || got.tail != prev {
		t.Fatalf("step %d: recency list holds %d of %d valid entries (tail %d, last %d)",
			step, n, valid, got.tail, prev)
	}
}

func TestTLBMatchesScanOracle(t *testing.T) {
	for _, entries := range []int{1, 2, 4, 64, 512} {
		for _, ws := range []int{(entries + 1) / 2, entries, entries + 1, 2 * entries, 16 * entries} {
			rng := rand.New(rand.NewSource(int64(entries*131 + ws)))
			diffTLB(t, entries, ws, 20000, rng)
		}
	}
}

// FuzzTLB is the randomized arm of the oracle: any seed, size and
// working-set ratio must keep the indexed TLB in lockstep with the scan.
func FuzzTLB(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(3), uint8(2))
	f.Add(int64(42), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, size, ratio uint8) {
		entries := []int{1, 2, 3, 4, 64, 512}[int(size)%6]
		ws := []int{(entries + 1) / 2, entries, entries + 1, 2 * entries, 16 * entries}[int(ratio)%5]
		diffTLB(t, entries, ws, 4000, rand.New(rand.NewSource(seed)))
	})
}

func TestBusRowLocality(t *testing.T) {
	cfg := PentiumD8300()
	bus := NewBus(cfg)
	// Two transfers in the same row: second has no row-miss overhead.
	d1 := bus.Acquire(0, 0, 0, 128, xferFill)
	d2 := bus.Acquire(0, d1, 128, 128, xferFill)
	sameRow := d2 - d1
	d3 := bus.Acquire(0, d2, 1<<20, 128, xferFill) // far away: row miss
	rowMiss := d3 - d2
	if rowMiss <= sameRow {
		t.Fatalf("row miss (%d) should cost more than row hit (%d)", rowMiss, sameRow)
	}
	if rowMiss-sameRow < cfg.RowMissOverhead {
		t.Fatalf("row switch overhead %d, want >= %d", rowMiss-sameRow, cfg.RowMissOverhead)
	}
}

func TestBusSerialisesTransfers(t *testing.T) {
	bus := NewBus(PentiumD8300())
	d1 := bus.Acquire(0, 0, 0, 128, xferFill)
	// A transfer requested at time 0 while the bus is busy starts after d1.
	d2 := bus.Acquire(0, 0, 128, 128, xferFill)
	if d2 <= d1 {
		t.Fatalf("concurrent transfer finished at %d, before first at %d", d2, d1)
	}
}

func TestBusMemMemPenalty(t *testing.T) {
	cfg := PentiumD8300()
	bus := NewBus(cfg)
	// Context 0 streams; then context 1 transfers within the window.
	bus.Acquire(0, 0, 0, 128, xferFill)
	d1 := bus.Acquire(1, bus.BusyUntil(), 128, 128, xferFill)
	occWith := d1 - 0 // includes penalty

	bus2 := NewBus(cfg)
	bus2.Acquire(1, 0, 0, 128, xferFill)
	start := bus2.BusyUntil() + cfg.MemMemWindow + 1
	d2 := bus2.Acquire(1, start, 128, 128, xferFill)
	occWithout := d2 - start
	_ = occWith
	if occWithout == 0 {
		t.Fatal("zero occupancy")
	}
}

func TestBusStats(t *testing.T) {
	bus := NewBus(PentiumD8300())
	bus.Acquire(0, 0, 0, 128, xferFill)
	bus.Acquire(0, 0, 128, 128, xferFill)
	if bus.Stats.Transfers != 2 || bus.Stats.Bytes != 256 {
		t.Fatalf("stats %+v", bus.Stats)
	}
}

func TestAddrSpaceDisjointAllocations(t *testing.T) {
	as := NewAddrSpace(4096)
	r1 := as.Alloc("a", 100)
	r2 := as.Alloc("b", 5000)
	r3 := as.Alloc("c", 1)
	regs := []Region{r1, r2, r3}
	for i := range regs {
		if regs[i].Base == 0 {
			t.Fatal("allocation at address 0")
		}
		if regs[i].Base%4096 != 0 {
			t.Fatalf("region %d not page aligned: %#x", i, regs[i].Base)
		}
		for j := i + 1; j < len(regs); j++ {
			if regs[i].Base < regs[j].End() && regs[j].Base < regs[i].End() {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
	if !r1.Contains(r1.Base) || r1.Contains(r1.End()) {
		t.Fatal("Contains boundary conditions wrong")
	}
	if len(as.Regions()) != 3 {
		t.Fatalf("Regions() len %d", len(as.Regions()))
	}
}

func TestAddrSpaceZeroSize(t *testing.T) {
	as := NewAddrSpace(4096)
	r := as.Alloc("z", 0)
	if r.Size == 0 {
		t.Fatal("zero-size region")
	}
}

func TestConfigValidate(t *testing.T) {
	good := PentiumD8300()
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FreqHz = 0 },
		func(c *Config) { c.L1Bytes = 0 },
		func(c *Config) { c.L1Bytes = 1000 },
		func(c *Config) { c.L2Ways = 0 },
		func(c *Config) { c.L2NTWays = c.L2Ways + 1 },
		func(c *Config) { c.L1Line = 48 },
		func(c *Config) { c.L1Bytes, c.L1Ways, c.L1Line = 4, 1, 4 }, // a way of 4 bytes
		func(c *Config) { c.TLBEntries = 0 },
		func(c *Config) { c.BusBytesPerCycle = 0 },
		func(c *Config) { c.BusEff = 1.5 },
		func(c *Config) { c.RowBytes = 3000 },
		func(c *Config) { c.CPI = 0 },
		func(c *Config) { c.Quantum = 0 },
		func(c *Config) { c.SMTComputeFactor = 0 },
		func(c *Config) { c.SMTComputeMemFactor = 2 },
		func(c *Config) { c.PausePenalty = -1 },
		func(c *Config) { c.MemMemPenalty = 0.5 },
		func(c *Config) { c.NTSeqLoadFactor = 0 },
		func(c *Config) { c.PFTrain = 0 },
		func(c *Config) { c.PauseLoopCycles = 0 },
	}
	for i, mut := range mutations {
		c := PentiumD8300()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestPrefetcherTrainsOnSequential(t *testing.T) {
	cfg := PentiumD8300()
	pf := NewPrefetcher(cfg)
	bus := NewBus(cfg)
	line := uint64(cfg.L2Line)
	for i := uint64(0); i < 4; i++ {
		pf.Advance(0, bus, 0, i*line, cfg.L2Line, true)
	}
	if pf.Stats.Trained != 1 {
		t.Fatalf("trained %d streams, want 1", pf.Stats.Trained)
	}
	if pf.Stats.Issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if _, ok := pf.Claim(4 * line); !ok {
		t.Fatal("next line not prefetched")
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	cfg := PentiumD8300()
	pf := NewPrefetcher(cfg)
	bus := NewBus(cfg)
	addrs := []uint64{0, 7 << 14, 3 << 18, 9 << 16, 1 << 20, 5 << 13}
	for _, a := range addrs {
		pf.Advance(0, bus, 0, a, cfg.L2Line, true)
	}
	if pf.Stats.Trained != 0 || pf.Stats.Issued != 0 {
		t.Fatalf("random misses trained the prefetcher: %+v", pf.Stats)
	}
}

func TestPrefetcherThrashesOnIntermixedStreams(t *testing.T) {
	cfg := PentiumD8300() // 2 detectors
	pf := NewPrefetcher(cfg)
	bus := NewBus(cfg)
	line := uint64(cfg.L2Line)
	base := []uint64{0, 1 << 24, 2 << 24} // three interleaved streams
	for i := uint64(0); i < 20; i++ {
		for _, b := range base {
			pf.Advance(0, bus, 0, b+i*line, cfg.L2Line, true)
		}
	}
	if pf.Stats.Trained != 0 {
		t.Fatalf("3 interleaved streams trained %d detectors (table holds %d)", pf.Stats.Trained, cfg.PFStreams)
	}
	if pf.Stats.Evicted == 0 {
		t.Fatal("no detector thrashing recorded")
	}
}

func TestPrefetcherHitKeepsStreamAlive(t *testing.T) {
	cfg := PentiumD8300()
	pf := NewPrefetcher(cfg)
	bus := NewBus(cfg)
	line := uint64(cfg.L2Line)
	// Train, then advance via prefetch hits: the stream must keep
	// issuing new prefetches as long as its detector survives.
	for i := uint64(0); i < 2; i++ {
		pf.Advance(0, bus, 0, i*line, cfg.L2Line, true)
	}
	issuedAfterTrain := pf.Stats.Issued
	if issuedAfterTrain == 0 {
		t.Fatal("training issued nothing")
	}
	if _, ok := pf.Claim(2 * line); !ok {
		t.Fatal("line 2 not prefetched")
	}
	pf.Advance(0, bus, 0, 2*line, cfg.L2Line, false) // prefetch hit
	if pf.Stats.Issued <= issuedAfterTrain {
		t.Fatal("prefetch hit did not extend the stream")
	}
}

func TestPrefetcherDeadStreamStopsExtending(t *testing.T) {
	cfg := PentiumD8300()
	pf := NewPrefetcher(cfg)
	bus := NewBus(cfg)
	line := uint64(cfg.L2Line)
	for i := uint64(0); i < 2; i++ {
		pf.Advance(0, bus, 0, i*line, cfg.L2Line, true)
	}
	// Evict the detector with other random miss streams.
	for i := uint64(0); i < 8; i++ {
		pf.Advance(0, bus, 0, (100+i*37)<<20, cfg.L2Line, true)
	}
	issued := pf.Stats.Issued
	// A prefetch hit for the dead stream must NOT extend it.
	if _, ok := pf.Claim(2 * line); ok {
		pf.Advance(0, bus, 0, 2*line, cfg.L2Line, false)
	}
	if pf.Stats.Issued != issued {
		t.Fatal("dead stream kept extending after its detector was evicted")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelPF: "PF", LevelMem: "MEM", LevelWC: "WC"} {
		if l.String() != want {
			t.Errorf("Level %d = %q", l, l.String())
		}
	}
	if Level(9).String() == "" {
		t.Error("unknown level empty")
	}
}
