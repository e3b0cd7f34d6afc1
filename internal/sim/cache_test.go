package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(t *testing.T) *Cache {
	t.Helper()
	return NewCache("t", 8*1024, 4, 64, 1) // 32 sets, 4 ways
}

func TestCacheGeometry(t *testing.T) {
	c := newTestCache(t)
	if c.Sets() != 32 || c.Ways() != 4 || c.LineSize() != 64 {
		t.Fatalf("geometry: sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineSize())
	}
	if c.SizeBytes() != 8*1024 {
		t.Fatalf("size=%d", c.SizeBytes())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ total, ways, line, nt int }{
		{0, 4, 64, 0},
		{8192, 0, 64, 0},
		{8192, 4, 0, 0},
		{8192, 4, 64, 5},    // ntWays > ways
		{8192, 4, 64, -1},   // negative ntWays
		{8190, 4, 64, 0},    // not a multiple
		{96 * 64, 4, 64, 0}, // 24 sets: not a power of two
		{8, 2, 4, 0},        // a 4-byte way: the tag word would lose tag bits
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%v) did not panic", tc)
				}
			}()
			NewCache("bad", tc.total, tc.ways, tc.line, tc.nt)
		}()
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := newTestCache(t)
	if c.Lookup(0x1000, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, false, HintNone)
	if !c.Lookup(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x1030, false) {
		t.Fatal("miss within same line")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("hit in adjacent line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newTestCache(t)
	// Five lines mapping to the same set (stride = sets*line = 2048).
	lines := make([]Addr, 5)
	for i := range lines {
		lines[i] = uint64(i) * 2048
	}
	for _, a := range lines[:4] {
		c.Fill(a, false, HintNone)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Lookup(lines[0], false)
	ev := c.Fill(lines[4], false, HintNone)
	if !ev.Valid || ev.Line != lines[1] {
		t.Fatalf("evicted %+v, want line %#x", ev, lines[1])
	}
	if !c.Contains(lines[0]) || c.Contains(lines[1]) {
		t.Fatal("LRU order violated")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, true, HintNone) // dirty
	for i := 1; i <= 4; i++ {
		ev := c.Fill(uint64(i)*2048, false, HintNone)
		if i == 4 {
			if !ev.Valid || !ev.Dirty || ev.Line != 0 {
				t.Fatalf("want dirty eviction of line 0, got %+v", ev)
			}
		} else if ev.Valid {
			t.Fatalf("unexpected eviction %+v at fill %d", ev, i)
		}
	}
	if c.Stats.DirtyEvict != 1 {
		t.Fatalf("DirtyEvict=%d", c.Stats.DirtyEvict)
	}
}

func TestCacheWriteMarksDirty(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, false, HintNone)
	c.Lookup(0, true) // store hit dirties the line
	for i := 1; i <= 4; i++ {
		if ev := c.Fill(uint64(i)*2048, false, HintNone); ev.Valid && ev.Line == 0 && !ev.Dirty {
			t.Fatal("store hit did not dirty the line")
		}
	}
}

// Non-temporal fills must never displace temporal lines: that is the
// SRF-pinning mechanism of §III-A.
func TestCacheNTFillsNeverEvictTemporal(t *testing.T) {
	c := newTestCache(t) // 4 ways, 1 NT way
	// Fill the set with temporal lines (the pinned SRF).
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*2048, false, HintNone)
	}
	// Stream 100 NT lines through the same set.
	for i := 4; i < 104; i++ {
		ev := c.Fill(uint64(i)*2048, false, HintNonTemporal)
		if ev.Valid && ev.Line == 0*2048 && i > 4 {
			// The very first NT fill may displace the temporal line in
			// way 0; after that, NT traffic must only recycle NT lines.
			t.Fatalf("NT fill %d displaced temporal line", i)
		}
	}
	// At least ways 1..3 must still hold the original SRF lines.
	for i := 1; i < 4; i++ {
		if !c.Contains(uint64(i) * 2048) {
			t.Fatalf("temporal (SRF) line %d was displaced by NT traffic", i)
		}
	}
}

func TestCacheTemporalFillPrefersNTVictim(t *testing.T) {
	c := newTestCache(t)
	// Fill every way with temporal lines, stream one NT line through
	// (it recycles way 0), then fill temporally again: the NT line must
	// be the victim even though it is the most recently inserted.
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*2048, false, HintNone)
	}
	c.Fill(4*2048, false, HintNonTemporal)
	ev := c.Fill(5*2048, false, HintNone)
	if !ev.Valid || ev.Line != 4*2048 {
		t.Fatalf("temporal fill should evict the NT line first, evicted %+v", ev)
	}
}

func TestCacheFillExistingRefreshes(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, false, HintNone)
	ev := c.Fill(0, true, HintNone)
	if ev.Valid {
		t.Fatalf("re-fill evicted %+v", ev)
	}
	// The re-fill with write=true must dirty it.
	c.Fill(1*2048, false, HintNone)
	c.Fill(2*2048, false, HintNone)
	c.Fill(3*2048, false, HintNone)
	ev = c.Fill(4*2048, false, HintNone)
	if !ev.Valid || ev.Line != 0 || !ev.Dirty {
		t.Fatalf("want dirty eviction of line 0, got %+v", ev)
	}
}

func TestCacheResidentBytes(t *testing.T) {
	c := newTestCache(t)
	for a := uint64(0); a < 512; a += 64 {
		c.Fill(a, false, HintNone)
	}
	if got := c.ResidentBytes(0, 512); got != 512 {
		t.Fatalf("ResidentBytes=%d want 512", got)
	}
	if got := c.ResidentBytes(0, 1024); got != 512 {
		t.Fatalf("ResidentBytes=%d want 512", got)
	}
}

func TestCacheFlush(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, true, HintNone)
	c.Fill(64, false, HintNone)
	if d := c.Flush(); d != 1 {
		t.Fatalf("Flush dropped %d dirty lines, want 1", d)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("lines survive flush")
	}
}

// Property: the cache never holds two copies of one line, and never
// exceeds its associativity per set.
func TestCacheNoDuplicateLinesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("q", 4*1024, 4, 64, 1)
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(64)) * 64 * 7 % (1 << 20)
			hint := HintNone
			if rng.Intn(3) == 0 {
				hint = HintNonTemporal
			}
			if rng.Intn(2) == 0 {
				c.Lookup(addr, rng.Intn(2) == 0)
			} else {
				c.Fill(addr, rng.Intn(2) == 0, hint)
			}
			// Check invariant: each (set, tag) appears at most once.
			for s := 0; s < c.Sets(); s++ {
				seen := map[uint64]bool{}
				for w := 0; w < c.Ways(); w++ {
					ln := c.line(s*c.Ways() + w)
					if !ln.valid {
						continue
					}
					if seen[ln.tag] {
						return false
					}
					seen[ln.tag] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line just filled is resident; Lookup immediately after
// Fill must hit for any address within the line.
func TestCacheFillThenLookupProperty(t *testing.T) {
	f := func(raw uint64, off uint8, write bool) bool {
		c := NewCache("q", 4*1024, 4, 64, 1)
		addr := raw % (1 << 30)
		c.Fill(addr, write, HintNone)
		probe := c.LineAddr(addr) + uint64(off)%64
		return c.Lookup(probe, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheStatsCount(t *testing.T) {
	c := newTestCache(t)
	c.Lookup(0, false) // miss
	c.Fill(0, false, HintNone)
	c.Lookup(0, false) // hit
	c.Lookup(0, false) // hit
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

// line decodes slot i of the packed tag and lru arrays into the
// oracle's line record.
func (c *Cache) line(i int) cacheLine {
	w := c.tags[i]
	return cacheLine{tag: w >> lineFlagBits, valid: w&lineValid != 0, dirty: w&lineDirty != 0,
		nt: w&lineNT != 0, lru: c.lru[i]}
}

// diffCache builds a Cache and the refCache oracle with 2^lineShift-byte
// lines and 2^setShift sets, drives both through the operations encoded
// in ops (four bytes a step), and fails at the first step whose result,
// statistics, tick or any way's valid, tag, dirty, nt or lru bit differs.
// Geometries whose ways span fewer than 8 bytes must be rejected.
func diffCache(t *testing.T, ways, ntWays int, lineShift, setShift uint, ops []byte) {
	t.Helper()
	line, nsets := 1<<lineShift, 1<<setShift
	total := line * nsets * ways
	if lineShift+setShift < lineFlagBits {
		defer func() {
			if recover() == nil {
				t.Fatalf("NewCache accepted %d-byte ways", line*nsets)
			}
		}()
		NewCache("q", total, ways, line, ntWays)
		return
	}
	got := NewCache("q", total, ways, line, ntWays)
	want := newRefCache("q", total, ways, line, ntWays)

	// Addresses fall in four regions, the last ending at 2^64, each
	// spanning twice the cache so that sets overflow.
	span := uint64(2 * total)
	regions := [4]Addr{0, 1 << 32, 1 << 63, -span}
	// pins holds the slot a line was last found in and its set's
	// generation then, as a fast-path pin does.
	type cachePin struct {
		slot int
		gen  uint64
	}
	pins := map[Addr]cachePin{}
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		op, v := ops[0], uint64(ops[1])<<8|uint64(ops[2])
		addr := regions[v>>14] + (v&0x3fff)*uint64(line)%span + uint64(ops[3])%uint64(line)
		write, hint := op&8 != 0, HintNone
		if op&16 != 0 {
			hint = HintNonTemporal
		}
		var g, w string
		switch op % 8 {
		case 0, 1:
			gh, wh := got.Lookup(addr, write), want.Lookup(addr, write)
			g, w = fmt.Sprint("Lookup ", gh), fmt.Sprint("Lookup ", wh)
			if !gh && !wh && op&32 != 0 {
				// The memory system's miss path: install what Lookup
				// just proved absent.
				g += fmt.Sprintf(" fillMiss %+v", got.fillMiss(got.LineAddr(addr), write, hint))
				w += fmt.Sprintf(" fillMiss %+v", want.fillMiss(want.LineAddr(addr), write, hint))
			}
		case 2, 3:
			g = fmt.Sprintf("Fill %+v", got.Fill(addr, write, hint))
			w = fmt.Sprintf("Fill %+v", want.Fill(addr, write, hint))
		case 4:
			g, w = fmt.Sprint("Contains ", got.Contains(addr)), fmt.Sprint("Contains ", want.Contains(addr))
		case 5, 6:
			// The fast path's replay of a hit: a fresh tick, or the
			// last of k stamps of a closed-form batch, on the slot of a
			// pin whose set generation still holds, else of a scan.
			k := uint64(1 + op>>5)
			set, tag := got.index(addr)
			pn, ok := pins[got.LineAddr(addr)]
			slot := pn.slot
			if !ok || pn.gen != got.setGen[set] {
				if slot = got.findWay(set, tag); slot >= 0 {
					pins[got.LineAddr(addr)] = cachePin{slot, got.setGen[set]}
				}
			}
			ln := want.findLine(want.index(want.LineAddr(addr)))
			g, w = fmt.Sprint("touch ", slot >= 0), fmt.Sprint("touch ", ln != nil)
			if slot >= 0 && ln != nil {
				got.touch(slot, got.tick+k, write)
				ln.lru = want.tick + k
				if write {
					ln.dirty = true
				}
			}
			got.tick += k
			want.tick += k
		default:
			if op&0xf0 == 0 {
				g, w = fmt.Sprint("Flush ", got.Flush()), fmt.Sprint("Flush ", want.Flush())
			}
		}
		if g != w || got.Stats != want.Stats || got.tick != want.tick {
			t.Fatalf("step %d (op %#x addr %#x): %s stats %+v tick %d, oracle %s stats %+v tick %d",
				step, op, addr, g, got.Stats, got.tick, w, want.Stats, want.tick)
		}
		for s := range want.sets {
			for i, wl := range want.sets[s] {
				if gl := got.line(s*ways + i); gl != wl {
					t.Fatalf("step %d (op %#x addr %#x): set %d way %d = %+v, oracle %+v",
						step, op, addr, s, i, gl, wl)
				}
			}
		}
	}
}

// TestCacheMatchesOracle holds the packed Cache to the refCache oracle
// over 1-, 4-, 8- and 16-way geometries with every ntWays setting.
func TestCacheMatchesOracle(t *testing.T) {
	geoms := []struct{ lineShift, setShift uint }{{6, 3}, {7, 6}, {3, 0}, {0, 3}, {1, 1}}
	for _, ways := range []int{1, 4, 8, 16} {
		for nt := 0; nt <= ways; nt++ {
			for _, g := range geoms {
				rng := rand.New(rand.NewSource(int64(ways*1000 + nt*10 + int(g.lineShift))))
				ops := make([]byte, 4*3000)
				rng.Read(ops)
				diffCache(t, ways, nt, g.lineShift, g.setShift, ops)
			}
		}
	}
}

// FuzzCache is the randomized arm of TestCacheMatchesOracle: any
// geometry, and any sequence of lookups, fills, probes, fast-path
// stamps and flushes, must match the oracle way for way.
func FuzzCache(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(6), uint8(3), []byte("\x00\x00\x01\x00\x12\xc0\x01\x05\x2a\x40\x09\x3f\x07\x00\x00\x00"))
	f.Add(uint8(3), uint8(16), uint8(0), uint8(2), []byte("\xff\xff\xff\xff\x21\xc0\x00\x01\x05\xc0\x00\x01"))
	f.Fuzz(func(t *testing.T, waySel, nt, lineShift, setShift uint8, ops []byte) {
		ways := []int{1, 4, 8, 16}[waySel%4]
		diffCache(t, ways, int(nt)%(ways+1), uint(lineShift%8), uint(setShift%7), ops)
	})
}
