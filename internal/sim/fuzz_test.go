package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// fuzzOp is one step of a scripted workload. The script is generated
// from the fuzz seed BEFORE either machine runs, so the fast and
// reference executions replay byte-for-byte the same access sequence.
type fuzzOp struct {
	kind    int // 0 bulk, 1 indexed, 2 scalar, 3 compute
	n       int
	refs    []BulkRef
	idx     []int  // indexed op: record numbers
	rec     int    // indexed op: record stride in bytes
	addrs   []Addr // scalar op
	writes  []bool // scalar op
	compute int64
}

// fuzzRefs draws 1..4 bulk refs with adversarial shapes: misaligned
// bases, field sizes from 1 byte to beyond a cache line, strides from
// 0 (scatter-add style) to page-crossing, mixed hints and writes.
func fuzzRefs(rng *rand.Rand, base Addr) []BulkRef {
	nrefs := 1 + rng.Intn(4)
	refs := make([]BulkRef, nrefs)
	for i := range refs {
		hint := HintNone
		if rng.Intn(3) == 0 {
			hint = HintNonTemporal
		}
		refs[i] = BulkRef{
			Base:   base + Addr(rng.Intn(4<<20)),
			Size:   1 + rng.Intn(80),
			Stride: rng.Intn(130),
			Write:  rng.Intn(3) == 0,
			Hint:   hint,
		}
	}
	return refs
}

// fuzzIndex draws an index vector in one of svm's real shapes: a pure
// random permutation (no runs), a banded FEM-like pattern (short
// runs), or mostly-sequential with glitches (long runs) — the three
// regimes the indexed run coalescer must handle.
func fuzzIndex(rng *rand.Rand, n int) []int {
	idx := make([]int, n)
	switch rng.Intn(3) {
	case 0:
		for i, v := range rng.Perm(n) {
			idx[i] = v
		}
	case 1:
		for i := range idx {
			idx[i] = i + rng.Intn(17) - 8
			if idx[i] < 0 {
				idx[i] = 0
			}
			if idx[i] >= n {
				idx[i] = n - 1
			}
		}
	default:
		for i := range idx {
			idx[i] = i
		}
		for g := 0; g < n/10; g++ {
			idx[rng.Intn(n)] = rng.Intn(n)
		}
	}
	return idx
}

// buildFuzzScript turns a seed into a bounded workload script.
func buildFuzzScript(rng *rand.Rand) []fuzzOp {
	nops := 2 + rng.Intn(6)
	script := make([]fuzzOp, 0, nops)
	for i := 0; i < nops; i++ {
		var op fuzzOp
		op.kind = rng.Intn(4)
		switch op.kind {
		case 0:
			op.n = 1 + rng.Intn(1200)
			op.refs = fuzzRefs(rng, 0)
		case 1:
			op.n = 16 + rng.Intn(600)
			op.idx = fuzzIndex(rng, op.n)
			op.rec = 8 * (1 + rng.Intn(12))
		case 2:
			op.n = 1 + rng.Intn(200)
			op.addrs = make([]Addr, op.n)
			op.writes = make([]bool, op.n)
			for j := range op.addrs {
				op.addrs[j] = Addr(rng.Intn(4 << 20))
				op.writes[j] = rng.Intn(4) == 0
			}
		default:
			op.compute = int64(1 + rng.Intn(2000))
		}
		script = append(script, op)
	}
	return script
}

// replayFuzzScript executes the script on one machine. The indexed op
// mirrors svm's run lowering: constant-delta runs of length ≥ 4 become
// one AccessBulk, the rest go element-by-element — the same split the
// real gather/scatter path takes.
func replayFuzzScript(m *Machine, script []fuzzOp) RunStats {
	base := m.AS.Alloc("fuzz", 8<<20).Base
	return m.Run(func(c *CPU) {
		p := c.NewPipe(2, 1, StateMemory)
		for _, op := range script {
			switch op.kind {
			case 0:
				refs := append([]BulkRef(nil), op.refs...)
				for j := range refs {
					refs[j].Base += base
				}
				p.AccessBulk(op.n, refs...)
			case 1:
				rec := Addr(op.rec)
				for k := 0; k < op.n; {
					l, d := 1, 0
					if k+1 < op.n {
						d = op.idx[k+1] - op.idx[k]
						for k+l < op.n && op.idx[k+l]-op.idx[k+l-1] == d {
							l++
						}
					}
					if l >= 4 {
						p.AccessBulk(l,
							BulkRef{Base: base + Addr(op.idx[k])*rec, Size: 8, Stride: d * op.rec},
							BulkRef{Base: base + 5<<20 + Addr(k)*8, Size: 8, Stride: 8, Write: true})
						k += l
						continue
					}
					p.Access(base+Addr(op.idx[k])*rec, 8, false, HintNone)
					p.Access(base+5<<20+Addr(k)*8, 8, true, HintNone)
					k++
				}
			case 2:
				for j := range op.addrs {
					p.Access(base+op.addrs[j], 8, op.writes[j], HintNone)
				}
			default:
				c.Compute(op.compute)
			}
		}
		p.Drain()
		c.DrainWC()
	})
}

// FuzzAccessBulk is the randomized arm of the fast-path oracle: any
// mix of bulk shapes, svm-style indexed lowering and
// opaque scalar traffic must leave a fast-path machine bit-identical —
// stats, every cache line and its recency rank, TLB, bus, WC, prefetchers — to
// the reference machine. Counterexamples shrink to a scripted seed.
func FuzzAccessBulk(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		script := buildFuzzScript(rand.New(rand.NewSource(seed)))
		run := func(fast bool) (*Machine, RunStats) {
			m := MustNew(PentiumD8300())
			m.SetFastPath(fast)
			return m, replayFuzzScript(m, script)
		}
		fastM, fastStats := run(true)
		refM, refStats := run(false)

		if got, want := fmt.Sprintf("%+v", fastStats), fmt.Sprintf("%+v", refStats); got != want {
			t.Errorf("seed %d: RunStats diverge:\nfast: %s\nref:  %s", seed, got, want)
		}
		fastSnap, refSnap := fastM.StatsSnapshot(), refM.StatsSnapshot()
		for i := range fastSnap.Cov {
			if got, want := fastSnap.Cov[i].Accesses(), refSnap.Cov[i].Accesses(); got != want {
				t.Errorf("seed %d: ctx%d access totals diverge: fast %d, ref %d", seed, i, got, want)
			}
		}
		fastSnap.Cov, refSnap.Cov = [2]CoverageStats{}, [2]CoverageStats{}
		if fastSnap != refSnap {
			t.Errorf("seed %d: MachineStats diverge:\nfast: %+v\nref:  %+v", seed, fastSnap, refSnap)
		}
		if fastDump, refDump := dumpMachine(fastM), dumpMachine(refM); fastDump != refDump {
			t.Errorf("seed %d: machine state diverges:\n%s", seed, firstDiff(fastDump, refDump))
		}
	})
}
