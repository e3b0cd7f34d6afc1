package sim

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative write-back, write-allocate cache with true
// LRU replacement and a non-temporal insertion policy: NT fills are
// confined to the ntWays lowest-numbered ways of each set, and a
// temporal fill recycles the LRU NT line before it evicts a temporal
// one, so streamed lines cannot displace the temporally-filled (SRF)
// lines. This reproduces how the paper pins the SRF in L2 while
// gather/scatter traffic streams past it (§III-A).
//
// The ways live in a flat tags array indexed by set*ways+way (a
// "slot"): one word per way, the tag above the valid, dirty and NT flag
// bits, so the tag scan of an 8-way set reads one 64-byte host line.
// Each set's recency order is one word of order: 4-bit way numbers,
// the most recently used way in the low nibble, so a hit moves one
// nibble and a fill reads its victim off the order (see victim)
// instead of comparing stamps; hence at most 16 ways. Only this file
// knows the word formats: the bulk fast path names a line by its set
// and slot and promotes it with touch.
type Cache struct {
	lineSize int
	ways     int
	nsets    int
	ntWays   int
	ntSpan   int // ways that can hold an NT line: ntWays, or all ways when ntWays is 0
	tags     []uint64
	order    []uint64 // per set: way numbers, MRU in the low nibble
	empty    uint64   // the order of a set after a flush: way 0 LRU ... way ways-1 MRU
	lruShift uint     // shift of the LRU nibble, 4*(ways-1)

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

// maxCacheWays is the widest set a recency-order word can describe.
const maxCacheWays = 16

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
	if ways > maxCacheWays {
		panic(fmt.Sprintf("sim: cache %s has %d ways, more than %d", name, ways, maxCacheWays))
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
	c := &Cache{lineSize: lineSize, ways: ways, nsets: nsets, ntWays: ntWays, ntSpan: ntWays,
		tags: make([]uint64, nsets*ways), order: make([]uint64, nsets),
		lruShift: uint(4 * (ways - 1)), setGen: make([]uint64, nsets), setMask: uint64(nsets - 1)}
	if ntWays == 0 {
		c.ntSpan = ways // unconfined NT fills may land in any way
	}
	for w := 0; w < ways; w++ {
		c.empty |= uint64(w) << (4 * (ways - 1 - w))
	}
	for s := range c.order {
		c.order[s] = c.empty
	}
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

// Nibble masks for the recency-order words.
const (
	nibbleOnes  = 0x1111111111111111
	nibbleHighs = 0x8888888888888888
)

// wayPos returns the position of way w in the recency order o, 0 for
// the MRU way. The XOR zeroes exactly w's nibble, and the zero-nibble
// test's lowest flag is exact.
func wayPos(o uint64, w int) uint {
	x := o ^ uint64(w)*nibbleOnes
	return uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) >> 2
}

// touch makes the resident line in slot w of set the most recently used
// and applies a write's dirty bit: every hit's mutation, on the
// reference path and the fast path alike.
func (c *Cache) touch(set, w int, write bool) {
	if write {
		c.tags[w] |= lineDirty
	}
	c.promote(set, w-set*c.ways)
}

// promote moves way w of set to the MRU end of its order: the nibbles
// more recent than w shift up by one and w takes nibble 0.
func (c *Cache) promote(set, w int) {
	o := c.order[set]
	if int(o&0xf) == w {
		return
	}
	s := 4 * wayPos(o, w) & 63 // below 64, so the shifts need no range check
	low := o & (1<<s - 1)      // the nibbles more recent than w
	c.order[set] = o ^ low ^ uint64(w)<<s | low<<4 | uint64(w)
}

// Lookup probes the cache without filling. On a hit it refreshes LRU
// state and applies the write's dirty bit.
func (c *Cache) Lookup(addr Addr, write bool) bool {
	set, tag := c.index(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.touch(set, w, write)
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
	set, tag := c.index(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.touch(set, w, write)
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
	confined := hint == HintNonTemporal && c.ntWays > 0
	if confined {
		c.Stats.NTFills++
	}
	victim := base + c.victim(set, confined)

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
	c.tags[victim] = w
	c.promote(set, victim-base)
	c.setGen[set]++
	return ev
}

// victim returns the way of set that a fill replaces: an invalid way,
// else the LRU non-temporal line, else the LRU temporal line, among
// all ways or, for a confined NT fill, among the NT ways. NT fills
// thereby treat the NT ways as a small LRU sub-cache for streamed
// data, and temporal fills recycle NT lines before they evict the
// (SRF) working set. Two invariants spare a scan of the set:
//
//   - Invalid ways sit at the LRU end of the order in increasing way
//     order: a set starts (and restarts after Flush, the only
//     invalidation) as way 0 LRU … way ways-1 MRU, and every fill takes
//     the lowest invalid candidate. So the LRU way is the lowest
//     invalid way when there is one, and no way is invalid otherwise.
//   - NT lines live only in ways [0, ntSpan): a confined NT fill stays
//     in the ntWays lowest ways, and only with ntWays 0 can an NT fill
//     land anywhere.
func (c *Cache) victim(set int, confined bool) int {
	base := set * c.ways
	o := c.order[set]
	lru := int(o >> c.lruShift)
	if c.tags[base+lru]&lineValid == 0 && (!confined || lru < c.ntWays) {
		return lru
	}
	// Every candidate is valid. The NT line nearest the LRU end...
	victim, pos := -1, uint(0)
	for w := 0; w < c.ntSpan; w++ {
		if c.tags[base+w]&lineNT != 0 {
			if p := wayPos(o, w); victim < 0 || p > pos {
				victim, pos = w, p
			}
		}
	}
	if victim >= 0 {
		return victim
	}
	// ...else, with no NT line in the set, the LRU candidate.
	if !confined {
		return lru
	}
	for w := 0; w < c.ntWays; w++ {
		if p := wayPos(o, w); victim < 0 || p > pos {
			victim, pos = w, p
		}
	}
	return victim
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
	}
	for s := range c.setGen {
		c.order[s] = c.empty
		c.setGen[s]++
	}
	return dirty
}
