package svm

import (
	"fmt"

	"streamgpp/internal/sim"
)

// observeOp records one bulk operation's traffic: the strip count, the
// array-side bytes moved, and the sequential/indexed element split,
// per operation and per array. How the *indexed* elements themselves
// split — coalesced into AccessBulk runs versus issued one Access at a
// time — is reported after the loop by observeRuns, once the run
// detector has seen the index vector. The instrument handles are
// resolved once per registry (see metrics.go).
func observeOp(c *sim.CPU, op string, n, bytesPerRec int, indexed bool, arrayName string) {
	if c == nil {
		return
	}
	r := c.Machine().Observer()
	if r == nil {
		return
	}
	cs := countersFor(r)
	oc := &cs.gather
	if op == "scatter" {
		oc = &cs.scatter
	}
	oc.strips.Inc()
	oc.elems.Add(uint64(n))
	oc.arrayBytes.Add(uint64(n * bytesPerRec))
	ac := cs.arrayCounters(r, arrayName)
	ac.elems.Add(uint64(n))
	if indexed {
		oc.idxElems.Add(uint64(n))
		ac.idxElems.Add(uint64(n))
	} else {
		oc.seqElems.Add(uint64(n))
	}
}

// observeRuns reports how one indexed operation's elements split
// between coalesced runs (lowered to AccessBulk — BailIndexedRun) and
// the per-element path (BailIndexed), feeding the coverage profiler's
// indexed attribution and the svm.*.run_elems counters.
func observeRuns(c *sim.CPU, op string, runElems, total uint64) {
	if c == nil {
		return
	}
	c.CountBail(sim.BailIndexedRun, runElems)
	c.CountBail(sim.BailIndexed, total-runElems)
	r := c.Machine().Observer()
	if r == nil {
		return
	}
	cs := countersFor(r)
	if op == "scatter" {
		cs.scatter.runElems.Add(runElems)
	} else {
		cs.gather.runElems.Add(runElems)
	}
}

// idxRunMin is the shortest index run worth lowering to AccessBulk:
// below it the batch cannot amortise its probe (bulkBatch wants ≥2
// iterations after window bounds).
const idxRunMin = 4

// idxRun returns the length (≥1) and constant non-negative delta of
// the maximal run ix[pos], ix[pos]+d, ix[pos]+2d, ... within
// ix[pos:pos+max]. Descending runs are not coalesced (negative strides
// never batch), so they report length 1.
func idxRun(ix []int32, pos, max int) (int, int32) {
	if max <= 1 {
		return max, 0
	}
	d := ix[pos+1] - ix[pos]
	if d < 0 {
		return 1, 0
	}
	l := 2
	for l < max && ix[pos+l]-ix[pos+l-1] == d {
		l++
	}
	return l, d
}

// ScatterMode selects how scattered values combine with the array.
type ScatterMode uint8

// Scatter modes.
const (
	// ModeStore overwrites the destination fields.
	ModeStore ScatterMode = iota
	// ModeAdd accumulates into the destination fields (the residual
	// scatter-add of streamFEM/streamCDP).
	ModeAdd
)

// OpConfig tunes the bulk memory operations. The defaults model the
// paper's optimised streamGather/streamScatter library: software
// non-temporal prefetch with a short pipeline of outstanding accesses.
type OpConfig struct {
	// MLP is the number of outstanding array-side accesses the copy
	// loop sustains (software prefetch distance).
	MLP int
	// IssueCycles is the per-access issue cost of the copy loop.
	IssueCycles uint64
	// Hint is the cacheability hint for the array side. Non-temporal
	// keeps array traffic from displacing the SRF.
	Hint sim.Hint
}

// DefaultOps returns the configuration used by the stream runtime.
func DefaultOps() OpConfig {
	return OpConfig{MLP: 2, IssueCycles: 1, Hint: sim.HintNonTemporal}
}

// step is one access an element makes per record it reaches: a field
// group of the array record (at byte offset off) or the element's SRF
// slot.
type step struct {
	srf   bool
	off   int
	size  int
	write bool
	hint  sim.Hint
}

// bulkOp is one Gather, GatherMulti or Scatter call: each stream
// element reaches one record per index array (record first+k for a
// sequential op), and for each record issues the index entry's read
// (indexed ops only) and then its steps, in order, before its values
// move between the record's fields fmap and the element's stream
// fields. The caller fills in the call's operands; run derives the
// rest once per call.
type bulkOp struct {
	name     string // for panics
	cfg      OpConfig
	arr      *Array
	first    int           // first record of a sequential op
	idxs     []*IndexArray // nil for a sequential op
	idxStart int
	s        *Stream
	sStart   int
	buf      SRFBuf
	scatter  bool
	mode     ScatterMode

	elemBytes int
	steps     []step
	fmap      []int
	rec0, dlt []int // per record set: the current run's first record and delta
	// maxRunStride caps one run's byte stride at half an L1 line, so a
	// pinned line covers at least two iterations and the batch is never
	// degenerate. Delta-0 runs (a repeated index — scatter-adds into one
	// row, streamFEM's per-cell face triples) always pass.
	maxRunStride int
}

// describe builds the steps and field map of the selected fields. A
// gather reads each field group and writes it to the SRF slot; a
// scatter reads the SRF slot first, then stores the group — or, for
// ModeAdd, reads it temporally before the sum goes out, which is why
// the paper's scatter-adds are expensive.
func (o *bulkOp) describe(fields []int) {
	o.elemBytes = o.s.ElemBytes()
	for _, g := range o.arr.Layout.Groups(fields) {
		slot := step{srf: true, size: g.Size, write: !o.scatter, hint: sim.HintNone}
		if o.scatter && o.buf.Size > 0 {
			o.steps = append(o.steps, slot)
		}
		if o.scatter && o.mode == ModeAdd {
			o.steps = append(o.steps, step{off: g.Offset, size: g.Size, hint: sim.HintNone},
				step{off: g.Offset, size: g.Size, write: true, hint: sim.HintNone})
		} else {
			o.steps = append(o.steps, step{off: g.Offset, size: g.Size, write: o.scatter, hint: o.cfg.Hint})
		}
		if !o.scatter && o.buf.Size > 0 {
			o.steps = append(o.steps, slot)
		}
		o.fmap = append(o.fmap, g.Fields...)
	}
	sets := max(len(o.idxs), 1)
	o.rec0, o.dlt = make([]int, sets), make([]int, sets)
}

// run issues and moves elements [0,n): a sequential op as one
// AccessBulk run with delta 1, an indexed op as one AccessBulk per
// constant-delta run in the index vectors (a run of records rec0,
// rec0+d, ... is the same fixed set of constant-stride streams as the
// sequential case, plus the index streams), and every other element as
// one Access per step. AccessBulk is bit-identical to the per-element
// loop by contract, so how elements group never changes timing, only
// how fast the simulator gets there.
func (o *bulkOp) run(c *sim.CPU, fields []int, n int) {
	o.describe(fields)
	op := "gather"
	if o.scatter {
		op = "scatter"
	}
	sets := len(o.rec0)
	observeOp(c, op, n*sets, o.arr.Layout.SelectedBytes(o.fmap), o.idxs != nil, o.arr.Name)
	var pipe *sim.Pipe
	var refs []sim.BulkRef
	lower := false
	if c != nil {
		pipe = c.NewPipe(o.cfg.MLP, o.cfg.IssueCycles, sim.StateMemory)
		nrefs := sets * len(o.steps)
		if o.idxs != nil {
			nrefs += sets
		}
		l1 := c.Machine().Config().L1Line
		o.maxRunStride = l1 / 2
		lower = o.idxs == nil || runLowerable(l1, o.steps, nrefs)
		refs = make([]sim.BulkRef, 0, nrefs)
	}
	runElems := 0
	for k := 0; k < n; {
		if lower {
			if l := o.runAt(k, n-k); l > 0 {
				pipe.AccessBulk(l, o.refs(refs[:0], k)...)
				for e := 0; e < l; e++ {
					for j, r0 := range o.rec0 {
						o.move(k+e, j, r0+e*o.dlt[j])
					}
				}
				runElems += l
				k += l
				continue
			}
		}
		o.element(pipe, k)
		k++
	}
	if o.idxs != nil {
		observeRuns(c, op, uint64(runElems*sets), uint64(n*sets))
	}
	if c != nil {
		pipe.Drain()
		if o.scatter && o.mode == ModeStore && o.cfg.Hint == sim.HintNonTemporal {
			c.DrainWC() // close the movntq sequence with an sfence
		}
	}
}

// runLowerable reports whether indexed runs can be lowered to
// AccessBulk refs at all: every step must fit in one L1 line of l1
// bytes (bulkBatch pins single lines) and the pattern must not be
// wider than one call can batch. The per-run stride gate
// (maxRunStride) is checked against each run's delta.
func runLowerable(l1 int, steps []step, nrefs int) bool {
	if nrefs > sim.MaxBulkRefs {
		return false
	}
	for _, st := range steps {
		if st.size > l1 {
			return false
		}
	}
	return true
}

// runAt returns how many elements from k on issue as one AccessBulk,
// or 0, recording each record set's first record and delta. A
// sequential op runs to the end if it stays inside the array; an
// indexed op runs as long as the shortest constant-delta run among its
// index arrays, if that reaches idxRunMin, every delta passes
// maxRunStride and both endpoints of every run are in bounds. Otherwise
// the per-element path panics at exactly the offending element, with
// the same accesses issued before it.
func (o *bulkOp) runAt(k, left int) int {
	if o.idxs == nil {
		o.rec0[0], o.dlt[0] = o.first+k, 1
		if o.first+k < 0 || o.first+k+left > o.arr.N {
			return 0
		}
		return left
	}
	l := left
	for j, ix := range o.idxs {
		lj, d := idxRun(ix.Idx, o.idxStart+k, left)
		if int(d)*o.arr.Layout.Stride > o.maxRunStride {
			return 0
		}
		l = min(l, lj)
		o.dlt[j] = int(d)
	}
	if l < idxRunMin {
		return 0
	}
	for j, ix := range o.idxs {
		r0 := int(ix.Idx[o.idxStart+k])
		if r0 < 0 || r0+(l-1)*o.dlt[j] >= o.arr.N {
			return 0
		}
		o.rec0[j] = r0
	}
	return l
}

// refs appends the run at element k as AccessBulk refs, in element
// order: per record set, the index stream and then every step.
func (o *bulkOp) refs(refs []sim.BulkRef, k int) []sim.BulkRef {
	for j, r0 := range o.rec0 {
		if o.idxs != nil {
			refs = append(refs, sim.BulkRef{Base: o.idxs[j].ElemAddr(o.idxStart + k),
				Size: IndexElemBytes, Stride: IndexElemBytes, Hint: o.cfg.Hint})
		}
		for i := range o.steps {
			st := &o.steps[i]
			stride := o.dlt[j] * o.arr.Layout.Stride
			if st.srf {
				stride = o.elemBytes
			}
			refs = append(refs, sim.BulkRef{Base: o.addr(st, r0, k), Size: st.size,
				Stride: stride, Write: st.write, Hint: st.hint})
		}
	}
	return refs
}

// element issues element k one Access per step (p is nil for a purely
// functional run) and moves its values, record set by record set.
func (o *bulkOp) element(p *sim.Pipe, k int) {
	for j := range o.rec0 {
		rec := o.first + k
		if o.idxs != nil {
			ix := o.idxs[j]
			if p != nil {
				// The index entries themselves stream sequentially.
				p.Access(ix.ElemAddr(o.idxStart+k), IndexElemBytes, false, o.cfg.Hint)
			}
			rec = int(ix.Idx[o.idxStart+k])
		}
		if rec < 0 || rec >= o.arr.N {
			panic(fmt.Sprintf("svm: %s index %d out of array %s [0,%d)", o.name, rec, o.arr.Name, o.arr.N))
		}
		if p != nil {
			for i := range o.steps {
				st := &o.steps[i]
				p.Access(o.addr(st, rec, k), st.size, st.write, st.hint)
			}
		}
		o.move(k, j, rec)
	}
}

// addr is the address step st of element k touches in record rec.
func (o *bulkOp) addr(st *step, rec, k int) sim.Addr {
	if st.srf {
		return o.buf.ElemAddr(k, o.elemBytes)
	}
	return o.arr.RecordAddr(rec) + uint64(st.off)
}

// move copies record set j's values of element k between the stream
// and record rec.
func (o *bulkOp) move(k, j, rec int) {
	si := o.s.slot(o.sStart+k)*len(o.s.Fields) + j*len(o.fmap)
	ai := rec * len(o.arr.Layout.Fields)
	sd, ad := o.s.storage(), o.arr.Data
	switch {
	case !o.scatter:
		for f, fi := range o.fmap {
			sd[si+f] = ad[ai+fi]
		}
	case o.mode == ModeAdd:
		for f, fi := range o.fmap {
			ad[ai+fi] += sd[si+f]
		}
	default:
		for f, fi := range o.fmap {
			ad[ai+fi] = sd[si+f]
		}
	}
}

// Gather copies the selected fields of n records of src into dst
// elements [dstStart, dstStart+n), reading records sequentially from
// srcStart or through index entries idx[idxStart:idxStart+n]. buf is
// the SRF strip buffer that receives the data (timing only; pass the
// zero SRFBuf to skip SRF-side traffic). c may be nil for a purely
// functional run (tests and reference results).
//
// Timing: array-side reads use cfg.Hint (non-temporal by default, so
// the SRF stays pinned); SRF-side writes are temporal stores that hit
// in cache. Contiguous selected fields move as one block copy per
// record (the paper's field-alignment optimisation).
func Gather(c *sim.CPU, cfg OpConfig, dst *Stream, dstStart int, src *Array, fields []int,
	srcStart int, idx *IndexArray, idxStart, n int, buf SRFBuf) {
	if n == 0 {
		return
	}
	dst.checkRange("Gather dst", dstStart, n)
	var idxs []*IndexArray
	if idx != nil {
		idxs = []*IndexArray{idx}
	}
	o := bulkOp{name: "Gather", cfg: cfg, arr: src, first: srcStart, idxs: idxs, idxStart: idxStart,
		s: dst, sStart: dstStart, buf: buf}
	o.run(c, fields, n)
}

// Scatter writes dst fields from stream elements [srcStart, srcStart+n)
// into n records of the array, sequentially from dstStart or through
// idx[idxStart:idxStart+n]. mode selects overwrite or accumulate. buf
// is the SRF strip the data comes from (timing only).
//
// Timing: SRF-side reads hit in cache; array-side stores use cfg.Hint
// (movntq-style write combining by default). ModeAdd must read the old
// value, so the array side degenerates to temporal read-modify-write.
func Scatter(c *sim.CPU, cfg OpConfig, src *Stream, srcStart int, dst *Array, fields []int,
	dstStart int, idx *IndexArray, idxStart, n int, mode ScatterMode, buf SRFBuf) {
	if n == 0 {
		return
	}
	src.checkRange("Scatter src", srcStart, n)
	var idxs []*IndexArray
	if idx != nil {
		idxs = []*IndexArray{idx}
	}
	o := bulkOp{name: "Scatter", cfg: cfg, arr: dst, first: dstStart, idxs: idxs, idxStart: idxStart,
		s: src, sStart: srcStart, buf: buf, scatter: true, mode: mode}
	o.run(c, fields, n)
}

// GatherMulti copies the selected fields of src records reached through
// SEVERAL index arrays into one stream: element i of dst holds, for
// each index array j, the fields of src[idxs[j].Idx[idxStart+i]],
// concatenated. This is how streamFEM's GatherCell pulls all three of
// a cell's face fluxes in a single pass: the indices per element are
// spatially close, so one sweep reuses each fetched line instead of
// len(idxs) separate gathers re-fetching it. A run coalesces only
// while every index array runs at once, each with its own delta
// (streamFEM's face triples often advance in lockstep).
func GatherMulti(c *sim.CPU, cfg OpConfig, dst *Stream, dstStart int, src *Array, fields []int,
	idxs []*IndexArray, idxStart, n int, buf SRFBuf) {
	if n == 0 {
		return
	}
	if len(idxs) == 0 {
		panic("svm: GatherMulti needs at least one index array")
	}
	if dst.NumFields() != len(fields)*len(idxs) {
		panic(fmt.Sprintf("svm: GatherMulti stream %s has %d fields, want %d×%d",
			dst.Name, dst.NumFields(), len(fields), len(idxs)))
	}
	dst.checkRange("GatherMulti dst", dstStart, n)
	o := bulkOp{name: "GatherMulti", cfg: cfg, arr: src, idxs: idxs, idxStart: idxStart,
		s: dst, sStart: dstStart, buf: buf}
	o.run(c, fields, n)
}
