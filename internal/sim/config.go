// Package sim models a two-context (SMT) general-purpose processor and
// its memory system at task granularity.
//
// The paper evaluates its stream-program mapping on a hyper-threaded
// 3.4 GHz Pentium 4 (Prescott) with a 1 MB 8-way L2 (128-byte lines),
// an 800 MHz front-side bus (6.4 GB/s) and MONITOR/MWAIT support. Those
// machine properties — not the absolute megahertz — are what shape
// every figure in the evaluation, so this package reproduces them with
// a deterministic discrete-event model:
//
//   - set-associative write-back caches with LRU replacement and
//     non-temporal insertion hints (the mechanism that pins the Stream
//     Register File in cache, §III-A);
//   - a TLB whose page-walk penalty dominates random gathers/scatters
//     (§III-A "more than missing in the cache, missing in the TLB is
//     the dominant factor");
//   - an open-row DRAM + shared front-side bus with bandwidth
//     accounting, so sequential streams run at bus speed while
//     intermixed or random traffic pays row-switch overheads;
//   - a per-context hardware stream prefetcher that only trains on
//     un-intermixed sequential miss streams;
//   - an SMT engine that co-simulates two hardware contexts with
//     calibrated issue-sharing interference (Fig. 6) and busy-wait
//     interference for PAUSE vs. MONITOR/MWAIT (Fig. 8).
//
// Simulated threads are ordinary goroutines driving a *CPU handle; the
// engine serialises them in virtual time, so models are deterministic
// and race-free without locks in user code.
package sim

// Hint describes cacheability hints attached to a memory access,
// mirroring the Pentium 4's non-temporal prefetch (prefetchnta) and
// non-temporal store (movntq) instructions used by the paper's
// streamGather/streamScatter implementations.
type Hint uint8

const (
	// HintNone is an ordinary temporal access.
	HintNone Hint = iota
	// HintNonTemporal marks data that should not displace the pinned
	// SRF working set: loads fill a restricted cache way with lowest
	// replacement priority, stores bypass the caches through
	// write-combining buffers (no read-for-ownership).
	HintNonTemporal
)

// Config holds every machine parameter. The zero value is not valid;
// start from PentiumD8300 (the paper's DELL Dimension 8300 testbed) and
// override fields for ablations.
type Config struct {
	// FreqHz is the core clock, used only to convert cycles to
	// seconds/bandwidth for reporting.
	FreqHz float64

	// L1 data cache geometry (shared by both SMT contexts, as on the
	// Pentium 4).
	L1Bytes   int
	L1Ways    int
	L1Line    int
	L1HitLat  uint64
	L2Bytes   int
	L2Ways    int
	L2Line    int
	L2HitLat  uint64
	L2NTWays  int // ways per set available to non-temporal fills
	PageBytes int

	// TLB.
	TLBEntries int
	TLBWalkLat uint64 // hardware page-table walk penalty, cycles

	// DRAM and front-side bus.
	DRAMLat          uint64  // first-word latency of a demand line fill, cycles
	BusBytesPerCycle float64 // peak FSB transfer rate in bytes per core cycle
	BusEff           float64 // sustained fraction of peak for row-hit transfers
	RowMissOverhead  uint64  // extra bus occupancy when the DRAM row changes, cycles
	RowBytes         int     // DRAM row (page) size for open-row hits
	NTSeqLoadFactor  float64 // sequential bandwidth multiplier for software NT prefetch streams (<1: paper found NT hurt already-prefetched sequential loads)
	WCPartialPenalty uint64  // extra bus occupancy flushing a partially-filled write-combining buffer

	// Hardware prefetcher (per context).
	PFStreams int // stream detector entries; intermixing more streams than this defeats it
	PFDepth   int // lines fetched ahead once a stream is trained
	PFTrain   int // consecutive line misses needed to train a stream

	// Core issue model.
	CPI     float64 // cycles per abstract compute op when running alone
	Quantum uint64  // engine contention-sampling quantum, cycles

	// SMT interference factors (see DESIGN.md §5; each has an ablation
	// bench). They scale a context's compute rate depending on what the
	// sibling context is doing.
	SMTComputeFactor    float64 // sibling also computing (Fig. 6a)
	SMTComputeMemFactor float64 // sibling doing bulk memory (Fig. 6c)
	MemMemPenalty       float64 // bus-occupancy inflation when both contexts stream memory (Fig. 6b)
	PausePenalty        float64 // sibling spinning with PAUSE (Fig. 8a)

	// Inter-thread dispatch latencies measured in §III-B.2.
	PauseDispatchLat  uint64 // PAUSE spin loop notices a write after ~175 cycles
	MwaitDispatchLat  uint64 // MONITOR/MWAIT wakeup, ~680 cycles
	OSDispatchLat     uint64 // OS deschedule/wakeup, tens of thousands of cycles
	PauseLoopCycles   uint64 // cost of one PAUSE spin iteration
	MonitorSetupLat   uint64 // arming MONITOR before MWAIT
	MemMemWindow      uint64 // how recently the sibling must have used the bus to count as "streaming" for MemMemPenalty
	SpinCheckInterval uint64 // how often a sleeping/spinning context re-samples in the engine
}

// PentiumD8300 returns the configuration calibrated against the paper's
// testbed: a DELL Dimension 8300, 3.4 GHz Pentium 4 Prescott, 1 MB
// 8-way L2 with 128-byte lines, 800 MHz FSB (6.4 GB/s), i925X chipset.
//
// Mechanistic parameters come straight from the hardware manuals and
// the paper (L2 access 25 cycles, PAUSE dispatch 175 cycles, MWAIT
// dispatch 680 cycles). The handful of behavioural factors are
// calibrated so the micro-measurements in §III reproduce: sequential
// gather bandwidth near bus speed at 4-byte records falling to
// ~141 MB/s at 128-byte records, random gathers ~63 MB/s, NT helping
// random by ~30% and hurting sequential loads, comp∥comp and comp∥mem
// overlap saving 20–30% while mem∥mem loses ~6%.
func PentiumD8300() Config {
	return Config{
		FreqHz: 3.4e9,

		L1Bytes:   16 << 10,
		L1Ways:    8,
		L1Line:    64,
		L1HitLat:  4,
		L2Bytes:   1 << 20,
		L2Ways:    8,
		L2Line:    128,
		L2HitLat:  25,
		L2NTWays:  2, // "leaves one or two cache lines in each set available for non-SRF data"
		PageBytes: 4 << 10,

		TLBEntries: 64,
		TLBWalkLat: 110,

		DRAMLat:          300,
		BusBytesPerCycle: 6.4e9 / 3.4e9, // ≈1.88 B/cycle peak
		BusEff:           0.78,
		RowMissOverhead:  40,
		RowBytes:         4 << 10,
		NTSeqLoadFactor:  0.72,
		WCPartialPenalty: 24,

		PFStreams: 2,
		PFDepth:   8,
		PFTrain:   2,

		CPI:     1.0,
		Quantum: 200,

		SMTComputeFactor:    0.625,
		SMTComputeMemFactor: 0.72,
		MemMemPenalty:       1.06,
		PausePenalty:        0.74,

		PauseDispatchLat:  175,
		MwaitDispatchLat:  680,
		OSDispatchLat:     30000,
		PauseLoopCycles:   40,
		MonitorSetupLat:   60,
		MemMemWindow:      2000,
		SpinCheckInterval: 200,
	}
}

// ImprovedStream returns a hypothetical evolution of the Pentium 4
// along the axes §V-A identifies as limiting stream programs on 2005
// hardware: "the asynchronous bulk memory transfers are affected by TLB
// mapping, limiting the bandwidth utilization ... changes to the
// micro-architecture like adding more functional units and increasing
// TLB mapping could substantially improve the performance of stream
// programs." Relative to PentiumD8300: an 8× larger TLB with a faster
// walk, twice the non-temporal cache ways (so bulk streams keep more
// reuse without touching the SRF), and a deeper prefetcher. The
// FutureMachine benchmarks measure how much the stream programs gain.
func ImprovedStream() Config {
	c := PentiumD8300()
	c.TLBEntries = 512
	c.TLBWalkLat = 25
	c.L2NTWays = 4
	c.PFDepth = 16
	return c
}

// Validate reports a non-nil error when the configuration is internally
// inconsistent (non-power-of-two geometry, zero rates, and so on). It
// covers every geometry precondition of the cache/TLB/address-space
// constructors, so New surfaces bad configurations as errors; the
// panics remaining inside those constructors are internal invariants,
// reachable only by bypassing New.
func (c Config) Validate() error {
	switch {
	case c.FreqHz <= 0:
		return cfgErr("FreqHz must be positive")
	case c.L1Bytes <= 0 || c.L1Ways <= 0 || c.L1Line <= 0:
		return cfgErr("L1 geometry must be positive")
	case c.L1Bytes%(c.L1Ways*c.L1Line) != 0:
		return cfgErr("L1Bytes must be a multiple of L1Ways*L1Line")
	case !isPow2(c.L1Bytes / (c.L1Ways * c.L1Line)):
		return cfgErr("L1 set count must be a power of two")
	case c.L2Bytes <= 0 || c.L2Ways <= 0 || c.L2Line <= 0:
		return cfgErr("L2 geometry must be positive")
	case c.L2Bytes%(c.L2Ways*c.L2Line) != 0:
		return cfgErr("L2Bytes must be a multiple of L2Ways*L2Line")
	case !isPow2(c.L2Bytes / (c.L2Ways * c.L2Line)):
		return cfgErr("L2 set count must be a power of two")
	case c.L2NTWays < 0 || c.L2NTWays > c.L2Ways:
		return cfgErr("L2NTWays must be in [0, L2Ways]")
	case !isPow2(c.L1Line) || !isPow2(c.L2Line) || !isPow2(c.PageBytes):
		return cfgErr("line and page sizes must be powers of two")
	case c.L1Bytes/c.L1Ways < 1<<lineFlagBits || c.L2Bytes/c.L2Ways < 1<<lineFlagBits:
		return cfgErr("a cache way must span at least 8 bytes")
	case c.TLBEntries <= 0:
		return cfgErr("TLBEntries must be positive")
	case c.BusBytesPerCycle <= 0 || c.BusEff <= 0 || c.BusEff > 1:
		return cfgErr("bus rate must be positive and BusEff in (0,1]")
	case c.RowBytes <= 0 || !isPow2(c.RowBytes):
		return cfgErr("RowBytes must be a positive power of two")
	case c.CPI <= 0:
		return cfgErr("CPI must be positive")
	case c.Quantum == 0:
		return cfgErr("Quantum must be positive")
	case c.SMTComputeFactor <= 0 || c.SMTComputeFactor > 1,
		c.SMTComputeMemFactor <= 0 || c.SMTComputeMemFactor > 1,
		c.PausePenalty <= 0 || c.PausePenalty > 1:
		return cfgErr("SMT factors must be in (0,1]")
	case c.MemMemPenalty < 1:
		return cfgErr("MemMemPenalty must be >= 1")
	case c.NTSeqLoadFactor <= 0 || c.NTSeqLoadFactor > 1:
		return cfgErr("NTSeqLoadFactor must be in (0,1]")
	case c.PFStreams < 0 || c.PFDepth < 0 || c.PFTrain < 1:
		return cfgErr("prefetcher parameters out of range")
	case c.PauseLoopCycles == 0 || c.SpinCheckInterval == 0:
		return cfgErr("spin intervals must be positive")
	}
	return nil
}

type cfgErr string

func (e cfgErr) Error() string { return "sim: invalid config: " + string(e) }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// CyclesToSeconds converts a cycle count to wall-clock seconds on the
// configured machine.
func (c Config) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / c.FreqHz
}

// BandwidthGBs converts bytes moved in a cycle span to GB/s.
func (c Config) BandwidthGBs(bytes uint64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / c.CyclesToSeconds(cycles) / 1e9
}
