package sim

import (
	"cmp"
	"slices"
)

// TLB models a fully-associative translation lookaside buffer with LRU
// replacement. The paper identifies the hardware page-table walk — not
// the cache miss itself — as the dominant cost of random gathers and
// scatters on the Pentium 4 (§III-A), so the walk penalty is charged on
// every TLB miss before the memory access can issue.
//
// No operation scans the entries, so the 512-entry ImprovedStream TLB
// costs the host no more per access than the 64-entry Pentium D one:
//   - an open-addressed page→entry index (linear probing over a
//     power-of-two table at least four times the entry count, so probe
//     runs stay short; multiplicative hash; backward-shift deletion)
//     finds hits;
//   - an intrusive doubly-linked recency list over entries, most recent
//     first, yields the exact-LRU victim as its tail;
//   - filled counts the valid entries. Only Flush invalidates, and it
//     invalidates everything, so the valid entries are always
//     entries[:filled] and a miss installs into entries[filled] until
//     the TLB is full.
//
// A hit, like each of the fast path's stamps (touch), only writes lru
// and queues the entry on touched the first time; the next miss catches
// the list up by moving the queued entries to the front in increasing
// lru order. Bulk copies alternate between a few resident pages, so
// moving an entry on every hit would cost more than the rest of the hit,
// while a catch-up sorts and moves those few pages once per page
// crossing. After a catch-up the list is in strictly decreasing lru
// order, because every lru write carries a stamp above all earlier ones
// (a fresh tick, or a closed-form batch's stamps in increasing ref
// order). So its tail is the entry a scan for the minimum lru would
// pick, and the simulated hit/miss sequence, victims, stamps and
// statistics are those of a linear-scan LRU TLB.
type TLB struct {
	pageBits uint
	entries  []tlbEntry
	tick     uint64

	// gen counts installs and flushes; any cached *tlbEntry pointer
	// (a bulk fast-path pin) is only trustworthy while gen is
	// unchanged, because an install may repurpose the entry it points
	// at.
	gen uint64

	index      []int32 // entry index + 1 per slot; 0 marks an empty slot
	indexShift uint    // 64 - log2(len(index)): the hash keeps the top bits
	head, tail int32   // recency list ends, -1 when empty
	filled     int
	touched    []int32 // entries stamped since the list last caught up

	Stats TLBStats
}

type tlbEntry struct {
	page       uint64
	lru        uint64
	prev, next int32 // recency-list neighbours, -1 at the ends
	valid      bool
	queued     bool // on TLB.touched
}

// TLBStats counts translation events.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given entry count and page size. The
// geometry panic is an internal invariant: Config.Validate (enforced
// by sim.New) rejects configurations that could trip it.
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 || !isPow2(pageBytes) {
		panic("sim: bad TLB geometry")
	}
	bits := uint(0)
	for 1<<bits != pageBytes {
		bits++
	}
	slotBits := uint(1)
	for 1<<slotBits < 4*entries {
		slotBits++
	}
	return &TLB{
		pageBits:   bits,
		entries:    make([]tlbEntry, entries),
		index:      make([]int32, 1<<slotBits),
		indexShift: 64 - slotBits,
		head:       -1,
		tail:       -1,
		touched:    make([]int32, 0, entries),
	}
}

// Translate looks up the page containing addr, returning true on a hit.
// A miss installs the translation (the caller charges the walk).
func (t *TLB) Translate(addr Addr) bool {
	page := addr >> t.pageBits
	t.tick++
	if i := t.find(page); i >= 0 {
		t.touchIndex(i, t.tick)
		t.Stats.Hits++
		return true
	}
	t.Stats.Misses++
	t.catchUp()
	var i int32
	if t.filled < len(t.entries) {
		i = int32(t.filled)
		t.filled++
	} else {
		i = t.tail
		t.unindex(i)
		t.unlink(i)
	}
	t.entries[i] = tlbEntry{page: page, valid: true, lru: t.tick}
	t.pushFront(i)
	t.insert(i)
	t.gen++
	return false
}

// probe returns the entry currently mapping page, with no statistics or
// LRU effects, or nil when the page is not resident.
func (t *TLB) probe(page uint64) *tlbEntry {
	if i := t.find(page); i >= 0 {
		return &t.entries[i]
	}
	return nil
}

// touch stamps a resident entry as used at stamp. stamp must exceed
// every lru already in the TLB — callers pass a tick they have just
// advanced past — or the recency list would fall out of LRU order.
func (t *TLB) touch(e *tlbEntry, stamp uint64) {
	if e.queued {
		e.lru = stamp
		return
	}
	// A linked entry's index is its predecessor's next link, or the
	// head's when it has none.
	i := t.head
	if e.prev >= 0 {
		i = t.entries[e.prev].next
	}
	t.touchIndex(i, stamp)
}

func (t *TLB) touchIndex(i int32, stamp uint64) {
	e := &t.entries[i]
	e.lru = stamp
	if !e.queued {
		e.queued = true
		t.touched = append(t.touched, i)
	}
}

// catchUp moves the entries touched since the last catch-up to the
// front of the recency list, oldest stamp first, restoring strictly
// decreasing lru order from head to tail.
func (t *TLB) catchUp() {
	if len(t.touched) > 16 {
		slices.SortFunc(t.touched, func(a, b int32) int {
			return cmp.Compare(t.entries[a].lru, t.entries[b].lru)
		})
	} else {
		// The usual handful of pages: an inlined insertion sort costs
		// a fraction of SortFunc's indirect compares.
		for k := 1; k < len(t.touched); k++ {
			i := t.touched[k]
			lru := t.entries[i].lru
			j := k
			for ; j > 0 && t.entries[t.touched[j-1]].lru > lru; j-- {
				t.touched[j] = t.touched[j-1]
			}
			t.touched[j] = i
		}
	}
	for _, i := range t.touched {
		t.entries[i].queued = false
		t.toFront(i)
	}
	t.touched = t.touched[:0]
}

// Flush invalidates all entries.
func (t *TLB) Flush() {
	clear(t.entries)
	clear(t.index)
	t.head, t.tail, t.filled = -1, -1, 0
	t.touched = t.touched[:0]
	t.gen++
}

// Coverage returns the bytes of address space the TLB can map at once.
func (t *TLB) Coverage() uint64 {
	return uint64(len(t.entries)) << t.pageBits
}

func (t *TLB) home(page uint64) int {
	return int((page * 0x9e3779b97f4a7c15) >> t.indexShift)
}

// find returns the index of the entry mapping page, or -1. The table is
// at most a quarter full, so the probe sequence always reaches an empty
// slot.
func (t *TLB) find(page uint64) int32 {
	mask := len(t.index) - 1
	for s := t.home(page); ; s = (s + 1) & mask {
		v := t.index[s]
		if v == 0 {
			return -1
		}
		if t.entries[v-1].page == page {
			return v - 1
		}
	}
}

func (t *TLB) insert(i int32) {
	mask := len(t.index) - 1
	s := t.home(t.entries[i].page)
	for t.index[s] != 0 {
		s = (s + 1) & mask
	}
	t.index[s] = i + 1
}

// unindex removes entry i from the index, shifting later members of its
// probe run back so that no lookup ever stops early at the hole.
func (t *TLB) unindex(i int32) {
	mask := len(t.index) - 1
	s := t.home(t.entries[i].page)
	for t.index[s] != i+1 {
		s = (s + 1) & mask
	}
	for j := (s + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The slot at j may fill the hole at s unless its home lies
		// cyclically in (s, j].
		h := t.home(t.entries[t.index[j]-1].page)
		if (j-h)&mask >= (j-s)&mask {
			t.index[s] = t.index[j]
			s = j
		}
	}
	t.index[s] = 0
}

func (t *TLB) toFront(i int32) {
	if i != t.head {
		t.unlink(i)
		t.pushFront(i)
	}
}

func (t *TLB) unlink(i int32) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *TLB) pushFront(i int32) {
	e := &t.entries[i]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.entries[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}
