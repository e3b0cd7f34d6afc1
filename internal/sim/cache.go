package sim

import "fmt"

// Cache is a set-associative write-back, write-allocate cache with true
// LRU replacement and a non-temporal insertion policy: NT fills are
// confined to the ntWays lowest-numbered ways of each set and are
// inserted with minimal LRU priority, so they can never displace the
// temporally-filled (SRF) lines. This reproduces how the paper pins the
// SRF in L2 while gather/scatter traffic streams past it (§III-A).
//
// The ways live in two flat arrays indexed by set*ways+way (a "slot").
// tags holds one word per way, the tag above the valid, dirty and NT
// flag bits, so the tag scan of an 8-way set reads one 64-byte host
// line; lru holds the parallel recency stamps, read only to pick a
// victim. Only this file knows the word format: the bulk fast path
// names a line by its slot and stamps it with touch.
type Cache struct {
	lineSize int
	ways     int
	nsets    int
	ntWays   int
	tags     []uint64
	lru      []uint64 // larger = more recently used
	tick     uint64

	// Precomputed shift/mask forms of the geometry (everything is a
	// power of two), so the hot index() avoids integer division.
	lineShift uint
	setShift  uint
	setMask   uint64

	// setGen[s] counts installs into set s and whole-cache flushes. A
	// slot cached outside the cache (a bulk fast-path pin) still holds
	// its line only while its set's generation is unchanged.
	setGen []uint64

	// CacheStats accumulates since construction or the last reset.
	Stats CacheStats
}

// Flag bits of a tag word; the tag sits above them.
const (
	lineValid uint64 = 1 << iota
	lineDirty
	lineNT
	lineFlagBits = 3
)

// CacheStats counts cache events.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	NTFills    uint64
	Evictions  uint64
	DirtyEvict uint64
}

// NewCache builds a cache from total size, associativity and line size.
// The geometry panics below are internal invariants: Config.Validate
// (enforced by sim.New) rejects every configuration that could trip
// them, so they are reachable only by constructing a Cache directly
// with unvalidated parameters.
func NewCache(name string, totalBytes, ways, lineSize, ntWays int) *Cache {
	if totalBytes <= 0 || ways <= 0 || lineSize <= 0 || totalBytes%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("sim: bad cache geometry %s: %d/%d/%d", name, totalBytes, ways, lineSize))
	}
	if ntWays < 0 || ntWays > ways {
		panic(fmt.Sprintf("sim: ntWays %d out of range for %d-way cache", ntWays, ways))
	}
	nsets := totalBytes / (ways * lineSize)
	if !isPow2(nsets) || !isPow2(lineSize) {
		panic(fmt.Sprintf("sim: cache %s sets (%d) and line (%d) must be powers of two", name, nsets, lineSize))
	}
	// A tag is an address shifted right by lineShift+setShift; the
	// flags take its top lineFlagBits bits unless that shift frees them.
	if nsets*lineSize < 1<<lineFlagBits {
		panic(fmt.Sprintf("sim: cache %s ways (%d bytes) must span at least %d bytes", name, nsets*lineSize, 1<<lineFlagBits))
	}
	c := &Cache{lineSize: lineSize, ways: ways, nsets: nsets, ntWays: ntWays,
		tags: make([]uint64, nsets*ways), lru: make([]uint64, nsets*ways),
		setGen: make([]uint64, nsets), setMask: uint64(nsets - 1)}
	for 1<<c.lineShift != lineSize {
		c.lineShift++
	}
	for 1<<c.setShift != nsets {
		c.setShift++
	}
	return c
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.nsets * c.ways * c.lineSize }

// LineAddr returns the address of the line containing addr.
func (c *Cache) LineAddr(addr Addr) Addr { return addr &^ uint64(c.lineSize-1) }

func (c *Cache) index(addr Addr) (set int, tag uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> c.setShift
}

// findWay returns the slot of the resident line with the given set and
// tag, with no statistics or LRU effects, or -1.
func (c *Cache) findWay(set int, tag uint64) int {
	base := set * c.ways
	want := tag<<lineFlagBits | lineValid
	for i, w := range c.tags[base : base+c.ways] {
		if w&^(lineDirty|lineNT) == want {
			return base + i
		}
	}
	return -1
}

// touch stamps the resident line in slot w as used at stamp and applies
// a write's dirty bit: every hit's mutation, on the reference path and
// the fast path alike.
func (c *Cache) touch(w int, stamp uint64, write bool) {
	c.lru[w] = stamp
	if write {
		c.tags[w] |= lineDirty
	}
}

// Lookup probes the cache without filling. On a hit it refreshes LRU
// state and applies the write's dirty bit.
func (c *Cache) Lookup(addr Addr, write bool) bool {
	if w := c.findWay(c.index(addr)); w >= 0 {
		c.tick++
		c.touch(w, c.tick, write)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	Line  Addr
	Dirty bool
	Valid bool
}

// Fill inserts the line containing addr. hint selects the insertion
// policy; write marks the new line dirty (write-allocate). It returns
// the displaced line, if any. Filling a line that is already present
// only refreshes its state.
func (c *Cache) Fill(addr Addr, write bool, hint Hint) Evicted {
	// Already present (e.g. a prefetch landed before the demand fill).
	if w := c.findWay(c.index(addr)); w >= 0 {
		c.tick++
		c.touch(w, c.tick, write)
		return Evicted{}
	}
	return c.fillMiss(c.LineAddr(addr), write, hint)
}

// fillMiss is Fill for a line the caller has just proven absent (by a
// failed Lookup with no intervening installs), skipping the
// already-present scan. Mutations are identical to Fill's miss case.
func (c *Cache) fillMiss(line Addr, write bool, hint Hint) Evicted {
	set, tag := c.index(line)
	base := set * c.ways

	hi := base + c.ways // candidate victim slots are [base, hi)
	if hint == HintNonTemporal && c.ntWays > 0 {
		hi = base + c.ntWays
		c.Stats.NTFills++
	}

	// Victim priority: an invalid way, else the LRU non-temporal line,
	// else the LRU temporal line. NT fills are confined to the NT ways,
	// which therefore behave as a small LRU sub-cache for streamed
	// data; temporal fills prefer recycling NT lines over evicting the
	// (SRF) working set.
	victim := -1
	var bestNT, bestT uint64 = 1<<64 - 1, 1<<64 - 1
	ntVictim, tVictim := -1, -1
	for i := base; i < hi; i++ {
		w := c.tags[i]
		if w&lineValid == 0 {
			victim = i
			break
		}
		if w&lineNT != 0 {
			if c.lru[i] < bestNT {
				bestNT, ntVictim = c.lru[i], i
			}
		} else if c.lru[i] < bestT {
			bestT, tVictim = c.lru[i], i
		}
	}
	if victim < 0 {
		if ntVictim >= 0 {
			victim = ntVictim
		} else {
			victim = tVictim
		}
	}

	old := c.tags[victim]
	ev := Evicted{}
	if old&lineValid != 0 {
		dirty := old&lineDirty != 0
		c.Stats.Evictions++
		if dirty {
			c.Stats.DirtyEvict++
		}
		ev = Evicted{Line: c.lineFromSetTag(set, old>>lineFlagBits), Dirty: dirty, Valid: true}
	}
	w := tag<<lineFlagBits | lineValid
	if write {
		w |= lineDirty
	}
	if hint == HintNonTemporal {
		w |= lineNT
	}
	c.tick++
	c.tags[victim] = w
	c.lru[victim] = c.tick
	c.setGen[set]++
	return ev
}

func (c *Cache) lineFromSetTag(set int, tag uint64) Addr {
	return (tag<<c.setShift | uint64(set)) << c.lineShift
}

// Contains reports whether the line holding addr is resident (no LRU
// update, no stats).
func (c *Cache) Contains(addr Addr) bool { return c.findWay(c.index(addr)) >= 0 }

// ResidentBytes returns how many bytes of [base, base+size) are
// currently resident, for SRF pinning diagnostics.
func (c *Cache) ResidentBytes(base Addr, size uint64) uint64 {
	var n uint64
	for line := c.LineAddr(base); line < base+size; line += uint64(c.lineSize) {
		if c.Contains(line) {
			n += uint64(c.lineSize)
		}
	}
	return n
}

// Flush invalidates the whole cache, returning the number of dirty
// lines dropped. Used between independent experiments.
func (c *Cache) Flush() (dirty int) {
	for i, w := range c.tags {
		if w&(lineValid|lineDirty) == lineValid|lineDirty {
			dirty++
		}
		c.tags[i] = 0
		c.lru[i] = 0
	}
	for s := range c.setGen {
		c.setGen[s]++
	}
	return dirty
}
