package sim

// This file is the data model of the fast-path coverage profiler: a
// typed taxonomy of the reasons the bulk fast path (bulk.go) declines
// to serve an access or a batch, per-context counters of how traffic
// split between the pinned fast path and the per-access reference
// path, and per-context per-level bandwidth attribution (bytes moved
// and cycles occupied at the level that served them). All counters are
// plain uint64 fields bumped inline on paths that already mutate
// state, so the instrumentation allocates nothing and never touches a
// simulated clock — coverage answers "why is the simulator slow"
// without changing what it simulates.
//
// Counters are kept per hardware context, never per machine: the
// engine interleaves the two contexts' tasks in virtual time, so a
// machine-global snapshot bracketing one task would absorb the
// sibling's traffic. Each context writes only its own slot, which also
// keeps the counters race-free under the engine's one-runs-at-a-time
// scheduling.

// BailReason classifies why the bulk fast path disengaged for an
// access or a batch of iterations. The taxonomy is documented in
// DESIGN.md §13; the zero value is BailDisabled.
type BailReason uint8

// Bail reasons, in declaration order (metric keys use String()).
const (
	// BailDisabled: the fast path is switched off for the machine
	// (SetFastPath(false), streambench -nofast, STREAMGPP_FASTPATH=off).
	// Counted once per AccessBulk call.
	BailDisabled BailReason = iota
	// BailIndexed: indexed (data-dependent) traffic never enters
	// AccessBulk — the svm layer issues it one Access per element and
	// reports it here, one event per element.
	BailIndexed
	// BailRefShape: the reference pattern itself is unbatchable — no
	// refs, more than maxBatchRefs, a non-positive size, a negative
	// stride, or a ref wider than one L1 line or striding past it.
	// Checked once per AccessBulk call and counted once per iteration.
	BailRefShape
	// BailWindowFull: the pipe's MLP window is full, so the reference
	// path must run to drain outstanding misses.
	BailWindowFull
	// BailSiblingClock: the sibling context's clock bounds the batch
	// below two iterations — a park would actually switch contexts.
	BailSiblingClock
	// BailShortBatch: a pin window (line end, WC-buffer fill) bounds
	// the batch below two iterations.
	BailShortBatch
	// BailNoPin: no pin proves the access resident (line or page
	// crossing, pin evicted by round-robin replacement).
	BailNoPin
	// BailTLBGenMiss: a pin's TLB entry was invalidated (generation
	// changed) and the re-probe missed — pin-generation invalidation.
	BailTLBGenMiss
	// BailL1GenMiss: the pinned L1 line was evicted or its set mutated
	// since the pin (associativity-memo miss on re-probe).
	BailL1GenMiss
	// BailWCState: the write-combining buffer is closed, open on a
	// different line, would fill, or two NT-store streams collide.
	BailWCState
	// BailIndexedRun: indexed traffic that the svm layer *did* coalesce
	// — a constant-delta run in the index vector lowered to AccessBulk
	// strided refs. One event per element, splitting BailIndexed so the
	// profiler attributes what fraction of indexed traffic batches.
	BailIndexedRun

	// NumBailReasons sizes Bails arrays.
	NumBailReasons
)

var bailNames = [NumBailReasons]string{
	"disabled", "indexed", "ref_shape", "window_full", "sibling_clock",
	"short_batch", "no_pin", "tlb_gen_miss", "l1_gen_miss", "wc_state",
	"indexed_run",
}

// String returns the metric-key name of the reason.
func (r BailReason) String() string {
	if r < NumBailReasons {
		return bailNames[r]
	}
	return "unknown"
}

// BailReasons lists every reason in declaration order, so reports and
// metric key sets stay deterministic.
func BailReasons() []BailReason {
	out := make([]BailReason, NumBailReasons)
	for i := range out {
		out[i] = BailReason(i)
	}
	return out
}

// CoverageStats counts, for one hardware context, how Pipe traffic
// split between the pinned fast path and the per-access reference
// path, and why the fast path disengaged when it did. FastAccesses +
// SlowAccesses is mode-invariant (every access runs exactly once
// either way); the split and the bail counts are diagnostics of the
// simulator's own speed and legitimately differ fast-on vs fast-off.
type CoverageStats struct {
	// FastAccesses counts accesses served by a pin — collapsed in
	// closed form by bulkBatch or replayed singly by fastAccess.
	FastAccesses uint64
	// SlowAccesses counts accesses that walked the per-access
	// reference path (MemSystem.Access).
	SlowAccesses uint64
	// BatchedIters counts loop iterations bulkBatch collapsed.
	BatchedIters uint64
	// Bails counts fast-path disengagement events by reason. An event
	// is one failed attempt — a declined batch or an unproductive pin
	// scan — except BailIndexed and BailIndexedRun, which are per
	// element.
	Bails [NumBailReasons]uint64
}

// Reset zeroes the counters.
func (s *CoverageStats) Reset() { *s = CoverageStats{} }

// Delta returns s - prev, for bracketing one task or run.
func (s CoverageStats) Delta(prev CoverageStats) CoverageStats {
	d := CoverageStats{
		FastAccesses: s.FastAccesses - prev.FastAccesses,
		SlowAccesses: s.SlowAccesses - prev.SlowAccesses,
		BatchedIters: s.BatchedIters - prev.BatchedIters,
	}
	for i := range s.Bails {
		d.Bails[i] = s.Bails[i] - prev.Bails[i]
	}
	return d
}

// Add accumulates o into s.
func (s *CoverageStats) Add(o CoverageStats) {
	s.FastAccesses += o.FastAccesses
	s.SlowAccesses += o.SlowAccesses
	s.BatchedIters += o.BatchedIters
	for i := range s.Bails {
		s.Bails[i] += o.Bails[i]
	}
}

// Accesses returns the total Pipe accesses, mode-invariant.
func (s CoverageStats) Accesses() uint64 { return s.FastAccesses + s.SlowAccesses }

// FastPct returns the fast-path coverage percentage (0 when no
// accesses were recorded).
func (s CoverageStats) FastPct() float64 {
	total := s.Accesses()
	if total == 0 {
		return 0
	}
	return 100 * float64(s.FastAccesses) / float64(total)
}

// DominantBail returns the most-counted bail reason and its count;
// ties go to the earlier reason in declaration order.
func (s CoverageStats) DominantBail() (BailReason, uint64) {
	best, n := BailDisabled, uint64(0)
	for i := range s.Bails {
		if s.Bails[i] > n {
			best, n = BailReason(i), s.Bails[i]
		}
	}
	return best, n
}

// BWStats attributes one context's memory traffic per level: bytes
// moved and cycles the level was occupied serving them. The accounting
// model (what "occupied" means at each level) is fixed in DESIGN.md
// §13; by construction the counters are identical fast-path on and
// off — the fast path only serves guaranteed L1 hits and WC posts and
// applies the same increments the reference path would, while L2, PF,
// DRAM and TLB-walk rows only ever increment on the reference path.
// The Bytes/Cycles arrays are indexed by Level; the LevelMem row is
// bus occupancy and covers all DRAM traffic attributable to the
// context (demand fills, dirty writebacks, WC flushes, prefetches).
type BWStats struct {
	Bytes  [5]uint64 // indexed by Level
	Cycles [5]uint64 // indexed by Level
	// TLBWalks and TLBWalkCycles attribute page-walk serialization
	// (the TLB has no byte traffic of its own).
	TLBWalks      uint64
	TLBWalkCycles uint64
}

// Reset zeroes the counters.
func (s *BWStats) Reset() { *s = BWStats{} }

// Delta returns s - prev, for bracketing one task or run.
func (s BWStats) Delta(prev BWStats) BWStats {
	d := BWStats{
		TLBWalks:      s.TLBWalks - prev.TLBWalks,
		TLBWalkCycles: s.TLBWalkCycles - prev.TLBWalkCycles,
	}
	for i := range s.Bytes {
		d.Bytes[i] = s.Bytes[i] - prev.Bytes[i]
		d.Cycles[i] = s.Cycles[i] - prev.Cycles[i]
	}
	return d
}

// Add accumulates o into s.
func (s *BWStats) Add(o BWStats) {
	s.TLBWalks += o.TLBWalks
	s.TLBWalkCycles += o.TLBWalkCycles
	for i := range s.Bytes {
		s.Bytes[i] += o.Bytes[i]
		s.Cycles[i] += o.Cycles[i]
	}
}

// bwLevelKeys names levels in flat metric keys: Level.String() yields
// display names ("MEM"), metric keys want stable lowercase ("dram").
var bwLevelKeys = [5]string{"l1", "l2", "pf", "dram", "wc"}

// LevelKey returns the flat-metric key fragment for a level (e.g.
// LevelMem → "dram").
func LevelKey(l Level) string {
	if int(l) < len(bwLevelKeys) {
		return bwLevelKeys[l]
	}
	return "unknown"
}

// CountBail records n fast-path disengagement events of the given
// reason against this context. The svm layer uses it to report
// indexed (data-dependent) traffic, which is issued one Access per
// element and never reaches AccessBulk.
func (c *CPU) CountBail(r BailReason, n uint64) {
	c.m.Cov[c.p.id].Bails[r] += n
}

// Coverage returns the accumulated coverage counters of one context.
func (m *Machine) Coverage(ctx int) CoverageStats { return m.Cov[ctx] }

// Bandwidth returns the accumulated per-level bandwidth attribution of
// one context.
func (m *Machine) Bandwidth(ctx int) BWStats { return m.Mem.BW[ctx] }
