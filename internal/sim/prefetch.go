package sim

// Prefetcher models the Pentium 4 hardware stream prefetcher: a small
// table of stream detectors that train on consecutive cache-line
// misses and then run ahead of the demand stream. Two properties drive
// the paper's results and are reproduced here:
//
//   - It only helps ascending sequential miss streams. Random gathers
//     never train it (§III-A: random bandwidth is latency-bound).
//   - The detector table is tiny. When the regular-code baseline walks
//     several arrays in one loop, their interleaved misses evict each
//     other's detectors and prefetching collapses — which is why the
//     paper's bulk, one-stream-at-a-time gathers beat intermixed loads
//     even though all accesses are sequential (§IV-B).
//
// Every demand L2 miss asks Claim whether a prefetch covers its line,
// so the in-flight prefetches live in an open-addressed table (pfTable)
// whose failed lookup is a short probe run, not a Go map access.
type Prefetcher struct {
	cfg     Config
	streams []pfStream
	tick    uint64

	// pending maps a line address to the bus completion time of an
	// in-flight or completed prefetch. Entries are consumed by the
	// demand access that hits them.
	pending pfTable

	Stats PFStats
}

type pfStream struct {
	nextLine Addr
	count    int
	valid    bool
	lru      uint64
}

// PFStats counts prefetch activity.
type PFStats struct {
	Trained   uint64
	Issued    uint64
	UsefulHit uint64
	Evicted   uint64
}

// NewPrefetcher returns a prefetcher with cfg.PFStreams detectors.
func NewPrefetcher(cfg Config) *Prefetcher {
	return &Prefetcher{cfg: cfg, streams: make([]pfStream, cfg.PFStreams), pending: newPFTable()}
}

// Advance notifies the prefetcher of a demand access to the given line
// (wasMiss true for a demand miss, false for a hit on a prefetched
// line). A detector whose frontier matches advances and — once trained
// — keeps the stream PFDepth lines ahead. A miss with no matching
// detector allocates one by LRU: this is where intermixed streams
// thrash each other out, and because the frontier lives in the
// detector, an evicted stream stops prefetching until it retrains —
// no stream survives the table pressure for free.
func (p *Prefetcher) Advance(ctx int, bus *Bus, now uint64, line Addr, lineSize int, wasMiss bool) {
	if len(p.streams) == 0 {
		return
	}
	p.tick++
	// Find a detector expecting this line.
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.nextLine == line {
			s.count++
			s.nextLine = line + uint64(lineSize)
			s.lru = p.tick
			if s.count >= p.cfg.PFTrain {
				if s.count == p.cfg.PFTrain {
					p.Stats.Trained++
				}
				p.issue(ctx, bus, now, s.nextLine, lineSize)
			}
			return
		}
	}
	if !wasMiss {
		// A prefetch hit from a stream whose detector is gone: the
		// stream has died; it must retrain through misses.
		return
	}
	// Allocate a detector by LRU.
	victim, best := 0, uint64(1<<64-1)
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			victim = i
			break
		}
		if s.lru < best {
			best, victim = s.lru, i
		}
	}
	if p.streams[victim].valid {
		p.Stats.Evicted++
	}
	p.streams[victim] = pfStream{nextLine: line + uint64(lineSize), count: 1, valid: true, lru: p.tick}
}

// issue prefetches the run of PFDepth lines starting at from, skipping
// lines already in flight.
func (p *Prefetcher) issue(ctx int, bus *Bus, now uint64, from Addr, lineSize int) {
	for i := 0; i < p.cfg.PFDepth; i++ {
		line := from + uint64(i*lineSize)
		if p.pending.find(line) >= 0 {
			continue
		}
		done := bus.Acquire(ctx, now, line, lineSize, xferFill)
		p.pending.insert(line, done)
		p.Stats.Issued++
	}
}

// Claim checks whether line has an in-flight or completed prefetch and
// removes it, returning its arrival time.
func (p *Prefetcher) Claim(line Addr) (arrival uint64, ok bool) {
	if p.pending.n == 0 {
		return 0, false
	}
	s := p.pending.find(line)
	if s < 0 {
		return 0, false
	}
	arrival = p.pending.slots[s].arrival
	p.pending.remove(s)
	p.Stats.UsefulHit++
	return arrival, true
}

// Reset drops all detectors and in-flight prefetches.
func (p *Prefetcher) Reset() {
	for i := range p.streams {
		p.streams[i] = pfStream{}
	}
	p.pending.clear()
}

// pfTable is the prefetcher's line → arrival table: open addressing
// with linear probing over a power-of-two slot array kept at most a
// quarter full, so probe runs stay short, hashed like the TLB's page
// index and deleted from by backward shift. The registry apps keep
// tens of prefetches pending (a few hundred on FEM), so it starts
// small and doubles on demand.
type pfTable struct {
	slots []pfSlot
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
}

type pfSlot struct {
	line    Addr
	arrival uint64
	full    bool
}

const pfTableMinBits = 6

func newPFTable() pfTable {
	return pfTable{slots: make([]pfSlot, 1<<pfTableMinBits), shift: 64 - pfTableMinBits}
}

func (t *pfTable) home(line Addr) int {
	return int((line * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding line, or -1.
func (t *pfTable) find(line Addr) int {
	mask := len(t.slots) - 1
	for s := t.home(line); ; s = (s + 1) & mask {
		if !t.slots[s].full {
			return -1
		}
		if t.slots[s].line == line {
			return s
		}
	}
}

// insert adds line, which must be absent, doubling the table first if
// it would pass a quarter full.
func (t *pfTable) insert(line Addr, arrival uint64) {
	if 4*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]pfSlot, 2*len(old))
		t.shift--
		for _, e := range old {
			if e.full {
				t.place(e)
			}
		}
	}
	t.place(pfSlot{line: line, arrival: arrival, full: true})
	t.n++
}

func (t *pfTable) place(e pfSlot) {
	mask := len(t.slots) - 1
	s := t.home(e.line)
	for t.slots[s].full {
		s = (s + 1) & mask
	}
	t.slots[s] = e
}

// remove empties slot s, shifting later members of its probe run back
// so that no lookup ever stops early at the hole.
func (t *pfTable) remove(s int) {
	mask := len(t.slots) - 1
	for j := (s + 1) & mask; t.slots[j].full; j = (j + 1) & mask {
		// The entry at j may fill the hole at s unless its home lies
		// cyclically in (s, j].
		h := t.home(t.slots[j].line)
		if (j-h)&mask >= (j-s)&mask {
			t.slots[s] = t.slots[j]
			s = j
		}
	}
	t.slots[s] = pfSlot{}
	t.n--
}

// clear drops every entry, keeping the table's size.
func (t *pfTable) clear() {
	clear(t.slots)
	t.n = 0
}
