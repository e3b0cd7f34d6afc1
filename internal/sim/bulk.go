package sim

// This file implements the cycle-exact bulk fast path. Stream
// workloads (sequential or constant-stride gathers/scatters) touch the
// same cache line, TLB page or write-combining buffer many times in a
// row, so almost every access repeats the hierarchy walk the previous
// access just did. Each hardware context keeps a set of "pins":
// windows of memory proven resident (an L1 line plus its TLB entry, or
// a WC-buffer page). An access that lands inside a pin replays
// *exactly* the state mutations the per-access reference path would
// perform — same tick increments, same LRU updates, same statistics,
// same clock arithmetic, same park cadence — skipping only the
// redundant searches. Anything a pin cannot prove resident (line/page
// crossings, evictions by the sibling context, WC flushes) takes the
// ordinary path, whose result re-arms a pin. Generation counters on
// the L1's sets and the TLB detect foreign mutations that could
// silently unpin a window.
//
// Pins are captured after reference-path accesses of a declared pipe
// (an L1 hit, a WC post, or a fill — the filled lines are resident
// too), so one reference iteration re-arms the batch path, and they
// live in a per-context hashed 2-way set-associative table that
// survives Pipe lifetimes (svm creates a fresh Pipe per strip). A
// single access is served by Pipe.Access (fastPin proves it, replay
// applies it); a run of iterations by bulkBatch. Pin policy decides
// only *which* path executes an access, never what the access does, so
// it cannot affect simulated timing.
//
// Because the fast step performs literally the same mutations as the
// reference path, the two are bit-identical by construction; the
// differential tests in bulk_test.go, internal/svm and internal/bench
// enforce this.

// SetFastPath enables or disables the bulk fast path on this machine.
func (m *Machine) SetFastPath(on bool) { m.fastPath = on }

// FastPath reports whether the bulk fast path is enabled.
func (m *Machine) FastPath() bool { return m.fastPath }

// pin is one proven-resident window.
type pin struct {
	valid bool

	lo, hi Addr      // the window: one L1 line (cacheable) or one page (wc)
	way    int       // L1 slot of the line, cacheable pins only
	te     *tlbEntry // TLB entry mapping the window
	set    int       // L1 set of the line

	l1SetGen uint64
	tlbGen   uint64
}

// Pin-set geometry: a hashed 2-way set-associative table per hardware
// context. Sets are chosen by a multiplicative hash of the line
// address (arrays are page-aligned, so co-advancing streams would
// thrash a simple modulo index at every line), and the two ways give a
// colliding pair of streams a home each; the victim is the
// least-recently-used way. 128 line pins comfortably cover the widest
// declared pattern's concurrent streams.
const (
	pinSetBits = 6
	pinSets    = 1 << pinSetBits
	pinWays    = 2
)

// pinSet is one hardware context's persistent fast-path state. It
// lives on the Machine (indexed by context id) rather than the Pipe,
// because svm creates a fresh Pipe per strip: pins warmed by one strip
// must serve the next. All of it is policy/bookkeeping — the simulated
// state lives in the caches, TLB and clocks.
type pinSet struct {
	sets [pinSets][pinWays]pin
	mru  [pinSets]uint8 // most-recently-used way per set
	wc   pin            // the single WC-buffer page pin (one buffer per context)
}

// pinSlot hashes a line address into a set index. The multiplicative
// hash decorrelates co-advancing streams whose bases share alignment.
func pinSlot(line Addr) int {
	return int((uint64(line) * 0x9E3779B97F4A7C15) >> (64 - pinSetBits))
}

// lookup returns the pin covering the given line, or nil.
func (ps *pinSet) lookup(line Addr) *pin {
	s := pinSlot(line)
	ws := &ps.sets[s]
	if ws[0].valid && ws[0].lo == line {
		ps.mru[s] = 0
		return &ws[0]
	}
	if ws[1].valid && ws[1].lo == line {
		ps.mru[s] = 1
		return &ws[1]
	}
	return nil
}

// install stores pn in its set, refreshing an existing pin for the
// same line or evicting the LRU way.
func (ps *pinSet) install(pn pin) {
	s := pinSlot(pn.lo)
	ws := &ps.sets[s]
	var w int
	switch {
	case ws[0].valid && ws[0].lo == pn.lo:
		w = 0
	case ws[1].valid && ws[1].lo == pn.lo:
		w = 1
	case !ws[0].valid:
		w = 0
	case !ws[1].valid:
		w = 1
	default:
		w = 1 - int(ps.mru[s])
	}
	ws[w] = pn
	ps.mru[s] = uint8(w)
}

// BulkRef describes one reference pattern of a bulk operation:
// iteration k of the operation touches [Base+k*Stride, Base+k*Stride+Size).
type BulkRef struct {
	Base   Addr
	Size   int
	Stride int
	Write  bool
	Hint   Hint
}

// AccessBulk issues n iterations over the given reference patterns,
// bit-identically to the equivalent loop nest
//
//	for k := 0; k < n; k++ {
//		for _, r := range refs {
//			p.Access(r.Base+Addr(k*r.Stride), r.Size, r.Write, r.Hint)
//		}
//	}
//
// Declaring the whole pattern in one call is what lets the fast path
// coalesce: whenever every reference of an iteration is pinned
// (guaranteed L1 hit or write-combining post) and the engine would not
// switch contexts, a whole run of iterations collapses into one
// closed-form state update (see bulkBatch) — the simulator walks cache
// lines, not records. With the fast path disabled, or when the
// pattern's shape rules out every batch (batchShape), this is the
// literal reference loop and the call does not declare the pipe. A
// Stride of 0 is a valid pattern (every iteration re-touches the same
// window — an indexed run with constant index, or a scatter-add's
// read-modify-write pair).
func (p *Pipe) AccessBulk(n int, refs ...BulkRef) {
	c := p.c
	cov := &c.m.Cov[c.p.id]
	if !c.m.fastPath || !p.batchShape(refs) {
		// A pattern whose static shape can never batch runs as the
		// reference loop on an undeclared pipe: no probes, no captures.
		if c.m.fastPath {
			cov.Bails[BailRefShape] += uint64(n)
		} else {
			cov.Bails[BailDisabled]++
		}
		for k := 0; k < n; k++ {
			p.refIteration(k, refs)
		}
		return
	}
	p.declared = true
	if n == 1 {
		// A single iteration can never batch; skip the probe entirely
		// (indexed gathers degenerate to per-element calls on random
		// indices — this is their hot path).
		cov.Bails[BailShortBatch]++
		p.refIteration(0, refs)
		return
	}
	for k := 0; k < n; {
		adv, bail := p.bulkBatch(k, n-k, refs)
		if adv > 0 {
			k += adv
			continue
		}
		cov.Bails[bail]++
		p.refIteration(k, refs)
		k++
	}
}

// refIteration issues iteration k of the pattern one Access per ref.
func (p *Pipe) refIteration(k int, refs []BulkRef) {
	for i := range refs {
		r := &refs[i]
		p.Access(r.Base+Addr(k*r.Stride), r.Size, r.Write, r.Hint)
	}
}

// batchShape reports whether the pattern's static shape lets bulkBatch
// ever batch it: 1..maxBatchRefs refs, each a positive size within one
// L1 line and a non-negative stride that leaves two consecutive
// iterations room to share a line. An oversized ref spans lines every
// iteration, and a wider stride can never yield a run of 2; either way
// a single-line pin cannot prove a batch.
func (p *Pipe) batchShape(refs []BulkRef) bool {
	if len(refs) == 0 || len(refs) > maxBatchRefs {
		return false
	}
	l1Line := p.c.m.Mem.cfg.L1Line
	for i := range refs {
		r := &refs[i]
		if r.Size <= 0 || r.Stride < 0 || r.Size > l1Line || (r.Stride > 0 && r.Stride+r.Size > l1Line) {
			return false
		}
	}
	return true
}

// pinFor returns the validated pin covering the one-L1-line window at
// line, or nil with the typed reason. Validation re-resolves a stale
// L1 slot or TLB entry in place (generation mismatches) and invalidates
// the pin when the line or page is no longer resident.
func (p *Pipe) pinFor(line Addr) (*pin, BailReason) {
	ms := p.c.m.Mem
	pn := p.ps.lookup(line)
	if pn == nil {
		return nil, BailNoPin
	}
	if pn.tlbGen != ms.TLB.gen && !pn.retranslate(ms.TLB) {
		return nil, BailTLBGenMiss
	}
	if pn.l1SetGen != ms.L1.setGen[pn.set] {
		w := ms.L1.findWay(ms.L1.index(line))
		if w < 0 {
			pn.valid = false
			return nil, BailL1GenMiss
		}
		pn.way = w
		pn.l1SetGen = ms.L1.setGen[pn.set]
	}
	return pn, 0
}

// wcPin returns the context's WC page pin if it covers [addr, end),
// or nil with the typed reason.
func (p *Pipe) wcPin(addr, end Addr) (*pin, BailReason) {
	pn := &p.ps.wc
	if !pn.valid || addr < pn.lo || end > pn.hi {
		return nil, BailNoPin
	}
	if t := p.c.m.Mem.TLB; pn.tlbGen != t.gen && !pn.retranslate(t) {
		return nil, BailTLBGenMiss
	}
	return pn, 0
}

// retranslate re-resolves the pin's TLB entry once the TLB generation
// has moved, invalidating the pin when its page is no longer mapped.
func (pn *pin) retranslate(t *TLB) bool {
	te := t.probe(pn.lo >> t.pageBits)
	if te == nil {
		pn.valid = false
		return false
	}
	pn.te, pn.tlbGen = te, t.gen
	return true
}

// maxBatchRefs bounds the per-batch stack state of bulkBatch. 16
// admits the widest lowered patterns (a multi-index gather's index
// streams plus per-group array and SRF sides).
const maxBatchRefs = 16

// MaxBulkRefs is the widest reference pattern one AccessBulk call can
// batch; wider calls always run on the reference path. Exposed so the
// svm run coalescer can gate its lowering.
const MaxBulkRefs = maxBatchRefs

// bulkBatch tries to execute iterations k0, k0+1, ... of the reference
// pattern as one aggregate state update, returning how many iterations
// it consumed (0 = not batchable right now; the caller runs one
// reference iteration and retries) and, when it consumed none, the
// typed reason it declined (feeding the coverage profiler).
//
// A run of iterations is batchable when, for its whole length, every
// access is a guaranteed L1 hit or WC post (proven by a pin, as for a
// single access in Pipe.Access) and every park the reference path
// would make is a no-op (the engine would re-pick this context). Under
// those conditions each access's mutations are fixed increments —
// tick++, lru=tick, stats++, clock += issue — so k iterations apply in
// closed form: sums for the counters, final-position values for the
// LRU stamps. Refs sharing a TLB entry or cache line are stamped in
// reference order so the last writer matches. The result is
// bit-identical to the per-access loop.
// The caller has already checked the pattern's shape (batchShape).
func (p *Pipe) bulkBatch(k0, maxIter int, refs []BulkRef) (int, BailReason) {
	nrefs := len(refs)
	if p.wlen >= p.mlp {
		return 0, BailWindowFull
	}
	c := p.c
	ms := c.m.Mem
	l1Line := Addr(ms.cfg.L1Line)
	l2Line := Addr(ms.cfg.L2Line)

	// How far may the clock advance before a park would actually yield?
	yieldAt := c.yieldAt()
	if c.p.now >= yieldAt {
		return 0, BailSiblingClock
	}
	budget := yieldAt - 1 - c.p.now
	k := uint64(maxIter)
	if p.issue > 0 {
		if kb := budget / (uint64(nrefs) * p.issue); kb < k {
			k = kb
		}
	}
	if k < 2 {
		return 0, BailSiblingClock
	}

	// Resolve a pin for every ref and bound k by each pin's window.
	var (
		pinOf  [maxBatchRefs]*pin
		cpos   [maxBatchRefs]int // position among cacheable refs
		ncache int
		sawWC  bool
	)
	for r := 0; r < nrefs; r++ {
		ref := &refs[r]
		addr := ref.Base + Addr(k0*ref.Stride)
		end := addr + Addr(ref.Size)
		wc := ref.Write && ref.Hint == HintNonTemporal
		var (
			pn   *pin
			bail BailReason
		)
		if wc {
			if sawWC {
				return 0, BailWCState // two NT-store streams share one WC buffer: not batchable
			}
			sawWC = true
			if pn, bail = p.wcPin(addr, end); pn == nil {
				return 0, bail
			}
			wcb := &ms.wc[c.p.id]
			if !wcb.open || wcb.line != addr&^(l2Line-1) {
				return 0, BailWCState
			}
			// Stores must stay in the open buffer's line without
			// filling it, and each must fit in one L1 chunk.
			lineEnd := wcb.line + l2Line
			if end > lineEnd {
				return 0, BailWCState
			}
			if ref.Stride > 0 {
				if kl := (lineEnd - addr - Addr(ref.Size)) / Addr(ref.Stride); kl+1 < k {
					k = kl + 1
				}
			}
			if kc := uint64(ms.cfg.L2Line-1-wcb.bytes) / uint64(ref.Size); kc < k {
				k = kc
			}
			if k < 2 {
				return 0, BailShortBatch
			}
			if ref.Stride > 0 {
				for j := uint64(0); j < k; j++ {
					a := addr + Addr(j*uint64(ref.Stride))
					if (a&(l1Line-1))+Addr(ref.Size) > l1Line {
						k = j
						break
					}
				}
			} else if (addr&(l1Line-1))+Addr(ref.Size) > l1Line {
				return 0, BailWCState
			}
			if k < 2 {
				return 0, BailShortBatch
			}
		} else {
			line := addr &^ (l1Line - 1)
			if end > line+l1Line {
				return 0, BailNoPin // straddles two lines at this position
			}
			if pn, bail = p.pinFor(line); pn == nil {
				return 0, bail
			}
			// Iterations whose access stays inside the pinned line
			// (a zero stride never leaves it).
			if ref.Stride > 0 {
				if kp := (pn.hi - addr - Addr(ref.Size)) / Addr(ref.Stride); kp+1 < k {
					k = kp + 1
				}
			}
			if k < 2 {
				return 0, BailShortBatch
			}
			cpos[r] = ncache
			ncache++
		}
		pinOf[r] = pn
	}

	// Commit: replay k iterations' worth of mutations in closed form.
	c.p.state = p.state
	accesses := k * uint64(nrefs)
	cov := &c.m.Cov[c.p.id]
	cov.FastAccesses += accesses
	cov.BatchedIters += k
	ms.Stats.Accesses += accesses
	ms.TLB.Stats.Hits += accesses
	tlb0 := ms.TLB.tick
	ms.TLB.tick += accesses
	var l10 uint64
	if ncache > 0 {
		l10 = ms.L1.tick
		ms.L1.tick += k * uint64(ncache)
		ms.L1.Stats.Hits += k * uint64(ncache)
		ms.Stats.ByLevel[LevelL1] += k * uint64(ncache)
	}
	now0 := c.p.now
	if p.issue > 0 {
		adv := accesses * p.issue
		c.p.now += adv
		c.p.memCycles += adv
	}
	bw := &ms.BW[c.p.id]
	for r := 0; r < nrefs; r++ {
		pn := pinOf[r]
		// The ref's last access is iteration k-1, position r (or its
		// cacheable position) within it; stamping in ref order makes
		// the last writer win for refs sharing an entry or line, and
		// keeps the TLB's recency list in lru order.
		ms.TLB.touch(pn.te, tlb0+(k-1)*uint64(nrefs)+uint64(r)+1)
		var done uint64
		if pn == &p.ps.wc {
			wcb := &ms.wc[c.p.id]
			wcb.bytes += int(k) * refs[r].Size
			ms.Stats.ByLevel[LevelWC] += k
			bw.Bytes[LevelWC] += k * uint64(refs[r].Size)
			bw.Cycles[LevelWC] += k
			done = now0 + ((k-1)*uint64(nrefs)+uint64(r))*p.issue + 1
		} else {
			ms.L1.touch(pn.way, l10+(k-1)*uint64(ncache)+uint64(cpos[r])+1, refs[r].Write)
			bw.Bytes[LevelL1] += k * uint64(refs[r].Size)
			bw.Cycles[LevelL1] += k * ms.cfg.L1HitLat
			done = now0 + ((k-1)*uint64(nrefs)+uint64(r))*p.issue + ms.cfg.L1HitLat
		}
		if done > p.slowest {
			p.slowest = done
		}
	}
	p.pending = (p.pending + int(accesses)) % pipeParkBatch
	return int(k), 0
}

// fastPin returns the validated pin that proves a declared access a
// guaranteed L1 hit or WC post, or nil after counting why not. An
// access spanning two L1 lines is split by the reference path, so no
// single pin proves it.
func (p *Pipe) fastPin(addr Addr, size int, write bool, hint Hint) *pin {
	if size <= 0 {
		return nil // let the reference path panic
	}
	c := p.c
	ms := c.m.Mem
	end := addr + Addr(size)
	line := addr &^ Addr(ms.cfg.L1Line-1)
	oneLine := end <= line+Addr(ms.cfg.L1Line)
	var (
		pn   *pin
		bail BailReason
	)
	switch {
	case write && hint == HintNonTemporal:
		if pn, bail = p.wcPin(addr, end); pn == nil {
			break
		}
		// The store must stay within one L1 line (larger stores split
		// into chunks) and append to the open WC buffer without filling
		// it (a fill flushes to the bus).
		wcb := &ms.wc[c.p.id]
		if !oneLine || !wcb.open || wcb.line != addr&^Addr(ms.cfg.L2Line-1) || wcb.bytes+size >= ms.cfg.L2Line {
			pn, bail = nil, BailWCState
		}
	case !oneLine:
		bail = BailNoPin
	default:
		pn, bail = p.pinFor(line)
	}
	if pn == nil {
		c.m.Cov[c.p.id].Bails[bail]++
	}
	return pn
}

// replay applies a pinned access issued at start: exactly the
// mutations MemSystem.Access makes for an L1 hit or a WC post that
// neither opens nor fills the buffer, minus the searches.
func (p *Pipe) replay(pn *pin, start uint64, size int, write bool) AccessResult {
	c := p.c
	ms := c.m.Mem
	ms.Stats.Accesses++
	ms.TLB.tick++
	ms.TLB.touch(pn.te, ms.TLB.tick)
	ms.TLB.Stats.Hits++
	c.m.Cov[c.p.id].FastAccesses++
	bw := &ms.BW[c.p.id]
	if pn == &p.ps.wc {
		ms.wc[c.p.id].bytes += size
		ms.Stats.ByLevel[LevelWC]++
		bw.Bytes[LevelWC] += uint64(size)
		bw.Cycles[LevelWC]++
		return AccessResult{Done: start + 1, Level: LevelWC}
	}
	l1 := ms.L1
	l1.tick++
	l1.touch(pn.way, l1.tick, write)
	l1.Stats.Hits++
	ms.Stats.ByLevel[LevelL1]++
	bw.Bytes[LevelL1] += uint64(size)
	bw.Cycles[LevelL1] += ms.cfg.L1HitLat
	return AccessResult{Done: start + ms.cfg.L1HitLat, Level: LevelL1}
}

// capturePin re-arms pins after a reference-path access: every line
// (or the WC page) that access touched is now resident, so subsequent
// accesses inside them can be served from a pin.
//
// Capture is eager: an L1 hit, a WC post, *and* any fill (L2, an
// in-flight prefetch, DRAM) all leave their lines L1-resident, so all
// of them pin — a stream that crosses into a new line pays exactly one
// reference iteration before the batch path re-arms.
func (p *Pipe) capturePin(addr Addr, size int, level Level) {
	ms := p.c.m.Mem
	ps := p.ps
	if level == LevelWC {
		page := addr >> ms.TLB.pageBits
		te := ms.TLB.probe(page)
		if te == nil {
			return
		}
		lo := page << ms.TLB.pageBits
		ps.wc = pin{valid: true, te: te, tlbGen: ms.TLB.gen,
			lo: lo, hi: lo + (1 << ms.TLB.pageBits)}
		return
	}
	// Pin every line the access touched.
	l1 := ms.L1
	l1Line := Addr(ms.cfg.L1Line)
	last := l1.LineAddr(addr + Addr(size) - 1)
	for line := l1.LineAddr(addr); line <= last; line += l1Line {
		set, tag := l1.index(line)
		w := l1.findWay(set, tag)
		if w < 0 {
			continue
		}
		te := ms.TLB.probe(line >> ms.TLB.pageBits)
		if te == nil {
			continue
		}
		ps.install(pin{valid: true, lo: line, hi: line + l1Line,
			way: w, te: te, set: set, l1SetGen: l1.setGen[set], tlbGen: ms.TLB.gen})
	}
}
