package svm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamgpp/internal/sim"
)

// refBulkOp is the per-element oracle of Gather, GatherMulti and
// Scatter: the literal loop that AccessBulk's contract names. Each
// element issues one Pipe.Access per access, in the order the ops
// document: per index array (or once, for a sequential op) the index
// entry, then per field group the array side and the SRF side — a
// scatter reads its SRF slot first, and ModeAdd reads the record
// before it writes it back — and then moves its values one at a time.
// gather selects the direction; idxs is nil for a sequential op.
func refBulkOp(c *sim.CPU, cfg OpConfig, name string, gather bool, s *Stream, sStart int, a *Array, fields []int,
	aStart int, idxs []*IndexArray, idxStart, n int, mode ScatterMode, buf SRFBuf) {
	groups := a.Layout.Groups(fields)
	elemBytes := s.ElemBytes()
	p := c.NewPipe(cfg.MLP, cfg.IssueCycles, sim.StateMemory)
	nsets := len(idxs)
	if nsets == 0 {
		nsets = 1
	}
	recs := make([]int, nsets)
	for k := 0; k < n; k++ {
		for j := range recs {
			rec := aStart + k
			if idxs != nil {
				p.Access(idxs[j].ElemAddr(idxStart+k), IndexElemBytes, false, cfg.Hint)
				rec = int(idxs[j].Idx[idxStart+k])
			}
			if rec < 0 || rec >= a.N {
				panic(fmt.Sprintf("svm: %s index %d out of array %s [0,%d)", name, rec, a.Name, a.N))
			}
			recs[j] = rec
			for _, g := range groups {
				at := a.RecordAddr(rec) + uint64(g.Offset)
				slot := buf.ElemAddr(k, elemBytes)
				switch {
				case gather:
					p.Access(at, g.Size, false, cfg.Hint)
					if buf.Size > 0 {
						p.Access(slot, g.Size, true, sim.HintNone)
					}
				default:
					if buf.Size > 0 {
						p.Access(slot, g.Size, false, sim.HintNone)
					}
					if mode == ModeAdd {
						p.Access(at, g.Size, false, sim.HintNone)
						p.Access(at, g.Size, true, sim.HintNone)
					} else {
						p.Access(at, g.Size, true, cfg.Hint)
					}
				}
			}
		}
		nf := len(a.Layout.Fields)
		for j, rec := range recs {
			sf := j * len(fields)
			for _, g := range groups {
				for _, fi := range g.Fields {
					av := &a.Data[rec*nf+fi]
					switch {
					case gather:
						s.Set(sStart+k, sf, *av)
					case mode == ModeAdd:
						*av += s.At(sStart+k, sf)
					default:
						*av = s.At(sStart+k, sf)
					}
					sf++
				}
			}
		}
	}
	p.Drain()
	if !gather && mode == ModeStore && cfg.Hint == sim.HintNonTemporal {
		c.DrainWC()
	}
}

// bulkCase is one scripted Gather, GatherMulti or Scatter call.
type bulkCase struct {
	op       string // "Gather", "GatherMulti" or "Scatter"
	mode     ScatterMode
	hint     sim.Hint
	fields   []int
	aStart   int       // sequential ops
	idx      [][]int32 // nil for a sequential op
	idxStart int
	sStart   int
	n        int
	useBuf   bool
	ring     int // ring length the ops' stream is bound to, 0 for full storage
}

// bulkScript is a record layout, an array length and a sequence of
// bulk calls over one array, drawn from a seed before any machine runs
// so every mode replays the same calls.
type bulkScript struct {
	layout RecordLayout
	nrec   int
	cases  []bulkCase
}

// fuzzIdx draws an index vector of length m over [0,nrec) in one of
// four shapes: constant-delta runs of mixed length and delta (0
// included), uniform random, runs with an occasional descending or
// out-of-range endpoint, and the identity (one long delta-1 run).
func fuzzIdx(rng *rand.Rand, m, nrec int) []int32 {
	ix := make([]int32, m)
	shape := rng.Intn(4)
	for k := 0; k < m; {
		switch shape {
		case 1:
			ix[k] = int32(rng.Intn(nrec))
			k++
			continue
		case 3:
			ix[k] = int32(k % nrec)
			k++
			continue
		}
		l := 1 + rng.Intn(12)
		d := []int{0, 1, 1, 2, 3, rng.Intn(9)}[rng.Intn(6)]
		start := rng.Intn(nrec)
		if shape == 2 && rng.Intn(8) == 0 {
			// A run that steps past either end of the array.
			if rng.Intn(2) == 0 {
				start, d = nrec-1-rng.Intn(3), 1+rng.Intn(2)
			} else {
				start, d = -1-rng.Intn(2), 1
			}
		} else if start+(l-1)*d >= nrec {
			d = 0
		}
		for e := 0; e < l && k < m; e++ {
			ix[k] = int32(start + e*d)
			k++
		}
	}
	return ix
}

func buildBulkScript(rng *rand.Rand) bulkScript {
	nf := 1 + rng.Intn(10)
	fs := make([]Field, nf)
	for i := range fs {
		fs[i] = F(fmt.Sprintf("f%d", i), []int{4, 8, 8, 16}[rng.Intn(4)])
	}
	layout := Layout("rec", fs...)
	if rng.Intn(2) == 0 {
		layout = layout.WithStride(layout.Span() + rng.Intn(72))
	}
	sc := bulkScript{layout: layout, nrec: 64 + rng.Intn(1500)}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		bc := bulkCase{op: []string{"Gather", "GatherMulti", "Scatter"}[rng.Intn(3)],
			mode: ScatterMode(rng.Intn(2)), hint: sim.HintNone, n: 1 + rng.Intn(400),
			useBuf: rng.Intn(4) != 0, sStart: rng.Intn(8)}
		if rng.Intn(2) == 0 {
			bc.hint = sim.HintNonTemporal
		}
		for _, fi := range rng.Perm(nf)[:1+rng.Intn(nf)] {
			bc.fields = append(bc.fields, fi)
		}
		nidx := 1
		switch {
		case bc.op == "GatherMulti":
			nidx = 1 + rng.Intn(3)
		case rng.Intn(3) == 0:
			nidx = 0 // sequential
			if bc.n > sc.nrec {
				bc.n = sc.nrec
			}
			bc.aStart = rng.Intn(sc.nrec - bc.n + 1)
		}
		bc.idxStart = rng.Intn(8)
		for j := 0; j < nidx; j++ {
			bc.idx = append(bc.idx, fuzzIdx(rng, bc.idxStart+bc.n, sc.nrec))
		}
		if rng.Intn(2) == 0 {
			// A ring of nbuf strips, as the compiler binds, that holds
			// the call's elements at once; the call lands a random
			// number of whole rings in, so its window wraps.
			nbuf := 1 + rng.Intn(2)
			bc.ring = nbuf * ((bc.n+nbuf-1)/nbuf + rng.Intn(8))
			bc.sStart += rng.Intn(4) * bc.ring
		}
		sc.cases = append(sc.cases, bc)
	}
	return sc
}

// bulkOutcome is everything one replay of a script leaves behind.
type bulkOutcome struct {
	cycles uint64
	stats  sim.MachineStats
	array  []float64
	// windows holds each call's stream elements [sStart, sStart+n),
	// the ones a ring keeps live.
	windows [][]float64
	panics  []string
}

// runBulkScript replays the script on a fresh machine through the svm
// ops on ring-bound streams where the case asks for one, or through
// refBulkOp on full storage when oracle is set. A call that panics
// (an out-of-range index) is recovered and its message kept, and the
// script goes on with the next call.
func runBulkScript(sc bulkScript, fast, oracle bool) bulkOutcome {
	m := sim.MustNew(sim.PentiumD8300())
	m.SetFastPath(fast)
	arr := NewArray(m, "arr", sc.layout, sc.nrec)
	arr.Fill(func(i, f int) float64 { return float64(i*16 + f) })
	srf := DefaultSRF(m)
	var out bulkOutcome
	type prepared struct {
		s    *Stream
		idxs []*IndexArray
		buf  SRFBuf
	}
	preps := make([]prepared, len(sc.cases))
	for i, bc := range sc.cases {
		var sfs []Field
		for range max(len(bc.idx), 1) {
			for _, fi := range bc.fields {
				sfs = append(sfs, F("v", sc.layout.Fields[fi].Size))
			}
		}
		pr := prepared{s: NewStream("s", bc.sStart+bc.n, sfs...)}
		if !oracle {
			pr.s.BindBuffers(nil, bc.ring)
		}
		// In element order, so a ring keeps the last values written:
		// those of the call's window.
		for e := 0; e < pr.s.N; e++ {
			for f := range sfs {
				pr.s.Set(e, f, float64(1000+e*len(sfs)+f))
			}
		}
		for j, ix := range bc.idx {
			x := NewIndexArray(m, fmt.Sprintf("idx%d", j), len(ix))
			copy(x.Idx, ix)
			pr.idxs = append(pr.idxs, x)
		}
		if bc.useBuf {
			// A strip that no longer fits in the SRF runs without one.
			if b, err := srf.Alloc("strip", uint64(bc.n*pr.s.ElemBytes())); err == nil {
				pr.buf = b
			}
		}
		preps[i] = pr
	}
	rs := m.Run(func(c *sim.CPU) {
		for i, bc := range sc.cases {
			pr := preps[i]
			cfg := DefaultOps()
			cfg.Hint = bc.hint
			func() {
				defer func() {
					if r := recover(); r != nil {
						out.panics = append(out.panics, fmt.Sprint(r))
					}
				}()
				gather := bc.op != "Scatter"
				if oracle {
					refBulkOp(c, cfg, bc.op, gather, pr.s, bc.sStart, arr, bc.fields, bc.aStart,
						pr.idxs, bc.idxStart, bc.n, bc.mode, pr.buf)
					return
				}
				var idx *IndexArray
				if len(pr.idxs) > 0 {
					idx = pr.idxs[0]
				}
				switch bc.op {
				case "Gather":
					Gather(c, cfg, pr.s, bc.sStart, arr, bc.fields, bc.aStart, idx, bc.idxStart, bc.n, pr.buf)
				case "GatherMulti":
					GatherMulti(c, cfg, pr.s, bc.sStart, arr, bc.fields, pr.idxs, bc.idxStart, bc.n, pr.buf)
				default:
					Scatter(c, cfg, pr.s, bc.sStart, arr, bc.fields, bc.aStart, idx, bc.idxStart, bc.n, bc.mode, pr.buf)
				}
			}()
		}
	})
	out.cycles, out.stats, out.array = rs.Cycles, m.StatsSnapshot(), arr.Data
	for i, pr := range preps {
		var w []float64
		for e := sc.cases[i].sStart; e < pr.s.N; e++ {
			for f := range pr.s.Fields {
				w = append(w, pr.s.At(e, f))
			}
		}
		out.windows = append(out.windows, w)
	}
	return out
}

// FuzzBulkOps checks Gather, GatherMulti and Scatter against the
// per-element oracle in both fast and reference mode: simulated
// cycles, MachineStats (coverage split aside, its access totals
// included), panics and every moved value must agree, the ops' on
// ring-bound streams with the oracle's on full storage. Values are only
// compared for scripts that run to the end without a panic, since a
// call that panics leaves its last element half moved.
func FuzzBulkOps(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 312, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := buildBulkScript(rand.New(rand.NewSource(seed)))
		for _, fast := range []bool{true, false} {
			got, want := runBulkScript(sc, fast, false), runBulkScript(sc, fast, true)
			mode := map[bool]string{true: "fast", false: "reference"}[fast]
			if got.cycles != want.cycles {
				t.Errorf("seed %d %s: cycles %d, oracle %d", seed, mode, got.cycles, want.cycles)
			}
			for i := range got.stats.Cov {
				if g, w := got.stats.Cov[i].Accesses(), want.stats.Cov[i].Accesses(); g != w {
					t.Errorf("seed %d %s: ctx%d access total %d, oracle %d", seed, mode, i, g, w)
				}
			}
			got.stats.Cov, want.stats.Cov = [2]sim.CoverageStats{}, [2]sim.CoverageStats{}
			if got.stats != want.stats {
				t.Errorf("seed %d %s: MachineStats diverge:\nops:    %+v\noracle: %+v", seed, mode, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.panics, want.panics) {
				t.Errorf("seed %d %s: panics %q, oracle %q", seed, mode, got.panics, want.panics)
			}
			if len(want.panics) == 0 && (!reflect.DeepEqual(got.array, want.array) || !reflect.DeepEqual(got.windows, want.windows)) {
				t.Errorf("seed %d %s: moved data diverges from the oracle", seed, mode)
			}
		}
	})
}
