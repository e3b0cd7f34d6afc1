package sim

// refCache is the cache model as it stood before the packed per-set
// tag words: sets of cacheLine structs behind a 4-entry MRU memo and a
// lastHit stash. It is kept verbatim, with only its type and
// constructor renamed and its CacheStats and Evicted declarations
// shared with Cache, as the oracle that TestCacheMatchesOracle and
// FuzzCache hold the packed Cache to.

import "fmt"

// cacheLine is one way of one set.
type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	nt    bool   // filled with a non-temporal hint
	lru   uint64 // larger = more recently used
}

// refCache is a set-associative write-back, write-allocate cache with true
// LRU replacement and a non-temporal insertion policy: NT fills are
// confined to the ntWays lowest-numbered ways of each set and are
// inserted with minimal LRU priority, so they can never displace the
// temporally-filled (SRF) lines. This reproduces how the paper pins the
// SRF in L2 while gather/scatter traffic streams past it (§III-A).
type refCache struct {
	name     string
	lineSize int
	ways     int
	nsets    int
	ntWays   int
	sets     [][]cacheLine
	tick     uint64

	// Precomputed shift/mask forms of the geometry (everything is a
	// power of two), so the hot index() avoids integer division.
	lineShift uint
	setShift  uint
	setMask   uint64

	// gen counts whole-cache invalidations and setGen[s] counts
	// installs into set s. Any cached *cacheLine pointer (the memo
	// below, or a bulk fast-path pin) is only trustworthy while both
	// generations are unchanged.
	gen    uint64
	setGen []uint64

	// memo is a tiny MRU front-end over the set scan: bulk copies
	// touch the same few lines (array, SRF, indices) repeatedly, so
	// most lookups resolve here. A memo hit performs exactly the
	// mutations a scan hit would, so timing and statistics are
	// unchanged. Only caches wider than the memo use it — for a cache
	// whose set scan is no longer than the memo scan (the 4-way L1)
	// the front-end is pure overhead on misses.
	memo     [cacheMemoWays]cacheMemo
	memoNext int
	useMemo  bool

	// lastHit stashes the line of the most recent scan hit *or* miss
	// fill so the bulk fast path can re-arm a pin without re-scanning
	// the set (after a fill, the just-installed line is the one the pin
	// wants). Like any cached *cacheLine it is only trustworthy while
	// gen and setGen[lastHitSet] are unchanged (checked by the
	// consumer).
	lastHit       *cacheLine
	lastHitLine   Addr
	lastHitSet    int
	lastHitGen    uint64
	lastHitSetGen uint64

	// CacheStats accumulates since construction or the last reset.
	Stats CacheStats
}

const cacheMemoWays = 4

type cacheMemo struct {
	line Addr
	ln   *cacheLine
}

// newRefCache builds a cache from total size, associativity and line size.
// The geometry panics below are internal invariants: Config.Validate
// (enforced by sim.New) rejects every configuration that could trip
// them, so they are reachable only by constructing a refCache directly
// with unvalidated parameters.
func newRefCache(name string, totalBytes, ways, lineSize, ntWays int) *refCache {
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
	sets := make([][]cacheLine, nsets)
	backing := make([]cacheLine, nsets*ways)
	for i := range sets {
		sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	c := &refCache{name: name, lineSize: lineSize, ways: ways, nsets: nsets, ntWays: ntWays,
		sets: sets, setGen: make([]uint64, nsets), setMask: uint64(nsets - 1),
		useMemo: ways > cacheMemoWays}
	for 1<<c.lineShift != lineSize {
		c.lineShift++
	}
	for 1<<c.setShift != nsets {
		c.setShift++
	}
	return c
}

// LineSize returns the cache line size in bytes.
func (c *refCache) LineSize() int { return c.lineSize }

// Sets returns the number of sets.
func (c *refCache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *refCache) Ways() int { return c.ways }

// SizeBytes returns the total capacity.
func (c *refCache) SizeBytes() int { return c.nsets * c.ways * c.lineSize }

// LineAddr returns the address of the line containing addr.
func (c *refCache) LineAddr(addr Addr) Addr { return addr &^ uint64(c.lineSize-1) }

func (c *refCache) index(line Addr) (set int, tag uint64) {
	l := line >> c.lineShift
	return int(l & c.setMask), l >> c.setShift
}

// Lookup probes the cache without filling. On a hit it refreshes LRU
// state and applies the write's dirty bit.
func (c *refCache) Lookup(addr Addr, write bool) bool {
	line := addr &^ uint64(c.lineSize-1)
	if c.useMemo {
		for i := range c.memo {
			if m := &c.memo[i]; m.ln != nil && m.line == line {
				c.tick++
				m.ln.lru = c.tick
				if write {
					m.ln.dirty = true
				}
				c.Stats.Hits++
				return true
			}
		}
	}
	set, tag := c.index(line)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.tick++
			ln.lru = c.tick
			if write {
				ln.dirty = true
			}
			c.Stats.Hits++
			c.remember(line, ln)
			c.lastHit = ln
			c.lastHitLine = line
			c.lastHitSet = set
			c.lastHitGen = c.gen
			c.lastHitSetGen = c.setGen[set]
			return true
		}
	}
	c.Stats.Misses++
	return false
}

func (c *refCache) remember(line Addr, ln *cacheLine) {
	if !c.useMemo {
		return
	}
	c.memo[c.memoNext] = cacheMemo{line: line, ln: ln}
	c.memoNext = (c.memoNext + 1) % cacheMemoWays
}

// findLine returns the resident line with the given set and tag, with
// no statistics or LRU effects, or nil.
func (c *refCache) findLine(set int, tag uint64) *cacheLine {
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// Fill inserts the line containing addr. hint selects the insertion
// policy; write marks the new line dirty (write-allocate). It returns
// the displaced line, if any. Filling a line that is already present
// only refreshes its state.
func (c *refCache) Fill(addr Addr, write bool, hint Hint) Evicted {
	line := c.LineAddr(addr)
	set, tag := c.index(line)

	// Already present (e.g. a prefetch landed before the demand fill).
	if ln := c.findLine(set, tag); ln != nil {
		c.tick++
		ln.lru = c.tick
		if write {
			ln.dirty = true
		}
		return Evicted{}
	}
	return c.fillMiss(line, write, hint)
}

// fillMiss is Fill for a line the caller has just proven absent (by a
// failed Lookup with no intervening installs), skipping the
// already-present scan. Mutations are identical to Fill's miss case.
func (c *refCache) fillMiss(line Addr, write bool, hint Hint) Evicted {
	set, tag := c.index(line)
	ways := c.sets[set]

	lo, hi := 0, c.ways // candidate victim ways
	if hint == HintNonTemporal && c.ntWays > 0 {
		lo, hi = 0, c.ntWays
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
	for i := lo; i < hi; i++ {
		ln := &ways[i]
		if !ln.valid {
			victim = i
			break
		}
		if ln.nt {
			if ln.lru < bestNT {
				bestNT, ntVictim = ln.lru, i
			}
		} else if ln.lru < bestT {
			bestT, tVictim = ln.lru, i
		}
	}
	if victim < 0 {
		if ntVictim >= 0 {
			victim = ntVictim
		} else {
			victim = tVictim
		}
	}

	old := ways[victim]
	ev := Evicted{}
	if old.valid {
		c.Stats.Evictions++
		if old.dirty {
			c.Stats.DirtyEvict++
		}
		ev = Evicted{Line: c.lineFromSetTag(set, old.tag), Dirty: old.dirty, Valid: true}
	}
	c.tick++
	ways[victim] = cacheLine{tag: tag, valid: true, dirty: write, nt: hint == HintNonTemporal, lru: c.tick}
	c.setGen[set]++
	c.lastHit = &ways[victim]
	c.lastHitLine = line
	c.lastHitSet = set
	c.lastHitGen = c.gen
	c.lastHitSetGen = c.setGen[set]
	if c.useMemo {
		for i := range c.memo {
			if c.memo[i].ln == &ways[victim] {
				c.memo[i] = cacheMemo{}
			}
		}
	}
	return ev
}

func (c *refCache) lineFromSetTag(set int, tag uint64) Addr {
	return (tag<<c.setShift | uint64(set)) << c.lineShift
}

// Contains reports whether the line holding addr is resident (no LRU
// update, no stats).
func (c *refCache) Contains(addr Addr) bool {
	set, tag := c.index(c.LineAddr(addr))
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// ResidentBytes returns how many bytes of [base, base+size) are
// currently resident, for SRF pinning diagnostics.
func (c *refCache) ResidentBytes(base Addr, size uint64) uint64 {
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
func (c *refCache) Flush() (dirty int) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid && c.sets[s][w].dirty {
				dirty++
			}
			c.sets[s][w] = cacheLine{}
		}
	}
	c.memo = [cacheMemoWays]cacheMemo{}
	c.memoNext = 0
	c.gen++
	return dirty
}
