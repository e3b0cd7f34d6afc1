package svm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamgpp/internal/sim"
)

func testMachine() *sim.Machine { return sim.MustNew(sim.PentiumD8300()) }

func TestLayoutConstruction(t *testing.T) {
	l := Layout("cell", F("x", 8), F("y", 8), F("z", 4))
	if l.Stride != 20 || l.Span() != 20 || l.NumFields() != 3 {
		t.Fatalf("layout %v", l)
	}
	if l.Fields[1].Offset != 8 || l.Fields[2].Offset != 16 {
		t.Fatalf("offsets %v", l.Fields)
	}
	l2 := l.WithStride(64)
	if l2.Stride != 64 || l.Stride != 20 {
		t.Fatal("WithStride must copy")
	}
}

func TestLayoutWithStrideTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Layout("r", F("a", 8)).WithStride(4)
}

func TestLayoutSelect(t *testing.T) {
	l := Layout("r", F("a", 8), F("b", 8), F("c", 8))
	sel := l.Select("c", "a")
	if len(sel) != 2 || sel[0] != 2 || sel[1] != 0 {
		t.Fatalf("Select %v", sel)
	}
	if l.FieldIndex("missing") != -1 {
		t.Fatal("FieldIndex of missing field")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Select of unknown field did not panic")
		}
	}()
	l.Select("nope")
}

func TestLayoutGroupsCoalesceContiguous(t *testing.T) {
	l := Layout("r", F("a", 8), F("b", 8), F("c", 8), F("d", 8))
	// a,b contiguous; d separate.
	g := l.Groups([]int{0, 1, 3})
	if len(g) != 2 {
		t.Fatalf("groups %v", g)
	}
	if g[0].Offset != 0 || g[0].Size != 16 || len(g[0].Fields) != 2 {
		t.Fatalf("group 0: %+v", g[0])
	}
	if g[1].Offset != 24 || g[1].Size != 8 {
		t.Fatalf("group 1: %+v", g[1])
	}
	// Out-of-order selection coalesces the same way.
	g2 := l.Groups([]int{3, 1, 0})
	if len(g2) != 2 || g2[0].Size != 16 {
		t.Fatalf("unsorted groups %v", g2)
	}
	if l.SelectedBytes([]int{0, 3}) != 16 {
		t.Fatal("SelectedBytes wrong")
	}
	if l.Groups(nil) != nil {
		t.Fatal("Groups(nil) should be nil")
	}
}

func TestArrayBasics(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("a", 8), F("b", 8))
	a := NewArray(m, "arr", l, 10)
	a.Set(3, 1, 42)
	if a.At(3, 1) != 42 {
		t.Fatal("Set/At")
	}
	a.Add(3, 1, 8)
	if a.At(3, 1) != 50 {
		t.Fatal("Add")
	}
	if a.FieldAddr(3, 1) != a.Region.Base+3*16+8 {
		t.Fatalf("FieldAddr %#x", a.FieldAddr(3, 1))
	}
	if a.Bytes() != 160 {
		t.Fatalf("Bytes %d", a.Bytes())
	}
	a.Fill(func(i, f int) float64 { return float64(i*10 + f) })
	if a.At(9, 1) != 91 {
		t.Fatal("Fill")
	}
	snap := a.CloneData()
	a.Set(0, 0, -1)
	a.RestoreData(snap)
	if a.At(0, 0) != 0 {
		t.Fatal("RestoreData")
	}
}

func TestStreamBasics(t *testing.T) {
	s := NewStream("s", 5, F("u", 8), F("v", 4))
	if s.ElemBytes() != 12 || s.NumFields() != 2 {
		t.Fatalf("stream %v %v", s.ElemBytes(), s.NumFields())
	}
	s.Set(4, 1, 7)
	if s.At(4, 1) != 7 {
		t.Fatal("Set/At")
	}
	if s.FieldIndex("v") != 1 || s.FieldIndex("w") != -1 {
		t.Fatal("FieldIndex")
	}
	if s.Buffered() {
		t.Fatal("fresh stream buffered")
	}
}

func TestStreamOfSelectsShape(t *testing.T) {
	l := Layout("r", F("a", 8), F("b", 4), F("c", 8))
	s := StreamOf("s", 3, l, l.Select("c", "a"))
	if s.NumFields() != 2 || s.ElemBytes() != 16 {
		t.Fatalf("StreamOf shape: %d fields, %d bytes", s.NumFields(), s.ElemBytes())
	}
	if s.Fields[0].Name != "c" {
		t.Fatalf("field order %v", s.Fields)
	}
}

func TestSRFAllocation(t *testing.T) {
	m := testMachine()
	srf, err := NewSRF(m, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := srf.Alloc("x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Size != 1024 { // rounded to line
		t.Fatalf("aligned size %d", b1.Size)
	}
	b2, _ := srf.Alloc("y", 1)
	if b2.Base < b1.End() {
		t.Fatal("allocations overlap")
	}
	if b1.Base%64 != 0 || b2.Base%64 != 0 {
		t.Fatal("not line aligned")
	}
	if srf.Used() != b1.Size+b2.Size || srf.Free() != srf.Capacity()-srf.Used() {
		t.Fatal("accounting")
	}
	if _, err := srf.Alloc("huge", srf.Free()+1); err == nil {
		t.Fatal("overflow not detected")
	}
	srf.Reset()
	if srf.Used() != 0 || len(srf.Allocs()) != 0 {
		t.Fatal("Reset")
	}
}

func TestSRFRejectsOversize(t *testing.T) {
	m := testMachine()
	if _, err := NewSRF(m, uint64(m.Config().L2Bytes)+1); err == nil {
		t.Fatal("SRF bigger than L2 accepted")
	}
	if _, err := NewSRF(m, 0); err == nil {
		t.Fatal("zero SRF accepted")
	}
	srf := DefaultSRF(m)
	if srf.Capacity() == 0 || srf.Capacity() > uint64(m.Config().L2Bytes) {
		t.Fatalf("default SRF capacity %d", srf.Capacity())
	}
}

// Gather then scatter must round-trip exactly (functional invariant).
func TestGatherScatterRoundTrip(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("a", 8), F("b", 8), F("c", 8))
	src := NewArray(m, "src", l, 100)
	dst := NewArray(m, "dst", l, 100)
	src.Fill(func(i, f int) float64 { return float64(i)*3 + float64(f) })

	s := StreamOf("s", 100, l, l.AllFields())
	Gather(nil, DefaultOps(), s, 0, src, l.AllFields(), 0, nil, 0, 100, SRFBuf{})
	Scatter(nil, DefaultOps(), s, 0, dst, l.AllFields(), 0, nil, 0, 100, ModeStore, SRFBuf{})
	for i := 0; i < 100; i++ {
		for f := 0; f < 3; f++ {
			if dst.At(i, f) != src.At(i, f) {
				t.Fatalf("roundtrip mismatch at (%d,%d)", i, f)
			}
		}
	}
}

func TestIndexedGatherPermutes(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("v", 8))
	src := NewArray(m, "src", l, 10)
	src.Fill(func(i, f int) float64 { return float64(i) })
	idx := NewIndexArray(m, "idx", 5)
	copy(idx.Idx, []int32{9, 0, 4, 4, 2})

	s := StreamOf("s", 5, l, l.AllFields())
	Gather(nil, DefaultOps(), s, 0, src, l.AllFields(), 0, idx, 0, 5, SRFBuf{})
	want := []float64{9, 0, 4, 4, 2}
	for i, w := range want {
		if s.At(i, 0) != w {
			t.Fatalf("elem %d = %v want %v", i, s.At(i, 0), w)
		}
	}
}

func TestIndexedScatterAddAccumulates(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("v", 8))
	dst := NewArray(m, "dst", l, 4)
	dst.Fill(func(i, f int) float64 { return 10 })
	idx := NewIndexArray(m, "idx", 3)
	copy(idx.Idx, []int32{1, 1, 3})

	s := NewStream("s", 3, F("v", 8))
	s.Set(0, 0, 1)
	s.Set(1, 0, 2)
	s.Set(2, 0, 5)
	Scatter(nil, DefaultOps(), s, 0, dst, l.AllFields(), 0, idx, 0, 3, ModeAdd, SRFBuf{})
	if dst.At(1, 0) != 13 || dst.At(3, 0) != 15 || dst.At(0, 0) != 10 {
		t.Fatalf("scatter-add result %v %v %v", dst.At(0, 0), dst.At(1, 0), dst.At(3, 0))
	}
}

func TestGatherSelectedFieldsOnly(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("x", 8), F("pad", 8), F("y", 8))
	src := NewArray(m, "src", l, 4)
	src.Fill(func(i, f int) float64 { return float64(i*10 + f) })
	sel := l.Select("y", "x")
	s := StreamOf("s", 4, l, sel)
	Gather(nil, DefaultOps(), s, 0, src, sel, 0, nil, 0, 4, SRFBuf{})
	// Groups sort by offset, so field order in the stream follows
	// memory order: x then y.
	if s.At(2, 0) != 20 || s.At(2, 1) != 22 {
		t.Fatalf("selected gather got (%v,%v)", s.At(2, 0), s.At(2, 1))
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("v", 8))
	src := NewArray(m, "src", l, 4)
	idx := NewIndexArray(m, "idx", 1)
	idx.Idx[0] = 99
	s := NewStream("s", 1, F("v", 8))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	Gather(nil, DefaultOps(), s, 0, src, l.AllFields(), 0, idx, 0, 1, SRFBuf{})
}

func TestGatherTimingChargesBus(t *testing.T) {
	m := testMachine()
	l := Layout("r", F("v", 8)).WithStride(128)
	src := NewArray(m, "src", l, 4096)
	s := StreamOf("s", 4096, l, l.AllFields())
	srf := DefaultSRF(m)
	buf, _ := srf.Alloc("s0", uint64(4096*s.ElemBytes()))
	var cycles uint64
	m.Run(func(c *sim.CPU) {
		Gather(c, DefaultOps(), s, 0, src, l.AllFields(), 0, nil, 0, 4096, buf)
		cycles = c.Now()
	})
	if cycles == 0 {
		t.Fatal("gather advanced no time")
	}
	if m.Mem.Bus.Stats.Bytes == 0 {
		t.Fatal("gather moved no bus bytes")
	}
}

// The SRF must stay pinned while NT gather traffic streams past it.
func TestSRFStaysPinnedUnderNTTraffic(t *testing.T) {
	m := testMachine()
	srf := DefaultSRF(m)
	buf, _ := srf.Alloc("strips", srf.Capacity()/2)

	l := Layout("r", F("v", 8)).WithStride(64)
	src := NewArray(m, "big", l, 1<<16) // 4 MB streamed past the SRF
	s := StreamOf("s", 1<<16, l, l.AllFields())

	m.Run(func(c *sim.CPU) {
		// Touch the SRF so it is resident (as gathers writing to it do).
		for a := buf.Base; a < buf.End(); a += 128 {
			c.Write(a, 8, sim.HintNone)
		}
		Gather(c, DefaultOps(), s, 0, src, l.AllFields(), 0, nil, 0, 1<<16, buf)
	})
	if res := srf.Residency(m); res < 0.95 {
		t.Fatalf("SRF residency %.2f after NT stream, want >= 0.95", res)
	}
}

func TestKernelRunsAndCharges(t *testing.T) {
	m := testMachine()
	in := NewStream("in", 100, F("v", 8))
	out := NewStream("out", 100, F("v", 8))
	for i := 0; i < 100; i++ {
		in.Set(i, 0, float64(i))
	}
	k := &Kernel{
		Name:       "double",
		OpsPerElem: 10,
		Fn: func(ins, outs []*Stream, start, n int) int64 {
			for i := start; i < start+n; i++ {
				outs[0].Set(i, 0, 2*ins[0].At(i, 0))
			}
			return 0
		},
	}
	var cycles uint64
	m.Run(func(c *sim.CPU) {
		k.Run(c, []*Stream{in}, []*Stream{out}, 10, 50)
		cycles = c.Now()
	})
	if out.At(30, 0) != 60 {
		t.Fatal("kernel did not compute")
	}
	if out.At(5, 0) != 0 || out.At(70, 0) != 0 {
		t.Fatal("kernel ran outside its strip")
	}
	if cycles < 450 || cycles > 600 {
		t.Fatalf("kernel charged %d cycles, want ~500", cycles)
	}
}

func TestKernelCostOverride(t *testing.T) {
	m := testMachine()
	s := NewStream("s", 10, F("v", 8))
	k := &Kernel{
		Name:       "dyn",
		OpsPerElem: 1000,
		Fn:         func(ins, outs []*Stream, start, n int) int64 { return 7 },
	}
	var cycles uint64
	m.Run(func(c *sim.CPU) {
		k.Run(c, []*Stream{s}, nil, 0, 10)
		cycles = c.Now()
	})
	if cycles > 20 {
		t.Fatalf("override ignored: %d cycles", cycles)
	}
}

func TestFusedKernel(t *testing.T) {
	a := &Kernel{Name: "a", OpsPerElem: 5, Fn: func(ins, outs []*Stream, start, n int) int64 {
		for i := start; i < start+n; i++ {
			outs[0].Set(i, 0, ins[0].At(i, 0)+1)
		}
		return 0
	}}
	b := &Kernel{Name: "b", OpsPerElem: 5, Fn: func(ins, outs []*Stream, start, n int) int64 {
		for i := start; i < start+n; i++ {
			outs[0].Set(i, 0, ins[0].At(i, 0)*2)
		}
		return 0
	}}
	f := Fuse("ab", a, b, 1, 1, 1, 1)
	in := NewStream("in", 4, F("v", 8))
	mid := NewStream("mid", 4, F("v", 8))
	out := NewStream("out", 4, F("v", 8))
	in.Set(2, 0, 10)
	f.Run(nil, []*Stream{in, mid}, []*Stream{mid, out}, 0, 4)
	if out.At(2, 0) != 22 {
		t.Fatalf("fused result %v", out.At(2, 0))
	}
	if f.OpsPerElem != 10 {
		t.Fatalf("fused cost %d", f.OpsPerElem)
	}
}

// TestStreamRing writes a ring-bound stream strip by strip, as a
// compiled schedule does, and reads back every element of the nbuf
// strips that are live at once. Binding it again to another ring
// falls back to full storage, and a range wider than the ring panics.
func TestStreamRing(t *testing.T) {
	const n, strip = 23, 5
	for nbuf := 1; nbuf <= 2; nbuf++ {
		s := NewStream("s", n, F("u", 8), F("v", 8))
		if s.data != nil {
			t.Fatal("fresh stream allocated its storage before first touch")
		}
		bufs := make([]SRFBuf, nbuf)
		s.BindBuffers(bufs, nbuf*strip)
		if s.Ring() != nbuf*strip || len(s.data) != nbuf*strip*2 {
			t.Fatalf("nbuf %d: ring %d with %d values, want %d elements", nbuf, s.Ring(), len(s.data), nbuf*strip)
		}
		for start := 0; start < n; start += strip {
			end := min(start+strip, n)
			for i := start; i < end; i++ {
				s.Set(i, 0, float64(i))
				s.Set(i, 1, -float64(i))
			}
			for i := max(start-(nbuf-1)*strip, 0); i < end; i++ {
				if s.At(i, 0) != float64(i) || s.At(i, 1) != -float64(i) {
					t.Fatalf("nbuf %d: live element %d reads (%v,%v) after strip at %d", nbuf, i, s.At(i, 0), s.At(i, 1), start)
				}
			}
		}
		s.BindBuffers(bufs, nbuf*strip+1)
		if s.Ring() != 0 {
			t.Fatalf("nbuf %d: rebinding to another ring kept ring %d", nbuf, s.Ring())
		}
		s.Set(n-1, 1, 3)
		if s.At(n-1, 1) != 3 || len(s.data) != n*2 {
			t.Fatalf("nbuf %d: full storage after rebinding holds %d values", nbuf, len(s.data))
		}
	}
	s := NewStream("s", n, F("u", 8))
	s.BindBuffers(nil, strip)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kernel range wider than the ring did not panic")
			}
		}()
		k := &Kernel{Name: "k", OpsPerElem: 1, Fn: func(_, _ []*Stream, _, _ int) int64 { return 0 }}
		k.Run(nil, []*Stream{s}, nil, 0, strip+1)
	}()
}

// Property: gather∘scatter over a random permutation restores the
// array (permutation round trip).
func TestPermutationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testMachine()
		l := Layout("r", F("v", 8))
		n := 50 + rng.Intn(50)
		src := NewArray(m, "src", l, n)
		dst := NewArray(m, "dst", l, n)
		src.Fill(func(i, f int) float64 { return rng.Float64() })
		perm := rng.Perm(n)
		idx := NewIndexArray(m, "idx", n)
		for i, p := range perm {
			idx.Idx[i] = int32(p)
		}
		s := StreamOf("s", n, l, l.AllFields())
		// Gather src[perm[i]] then scatter back to dst[perm[i]].
		Gather(nil, DefaultOps(), s, 0, src, l.AllFields(), 0, idx, 0, n, SRFBuf{})
		Scatter(nil, DefaultOps(), s, 0, dst, l.AllFields(), 0, idx, 0, n, ModeStore, SRFBuf{})
		for i := 0; i < n; i++ {
			if dst.At(i, 0) != src.At(i, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedRecordsSlowerThanPacked(t *testing.T) {
	run := func(stride int) uint64 {
		m := testMachine()
		l := Layout("r", F("v", 4)).WithStride(stride)
		src := NewArray(m, "src", l, 1<<15)
		s := StreamOf("s", 1<<15, l, l.AllFields())
		var cycles uint64
		m.Run(func(c *sim.CPU) {
			Gather(c, DefaultOps(), s, 0, src, l.AllFields(), 0, nil, 0, 1<<15, SRFBuf{})
			cycles = c.Now()
		})
		return cycles
	}
	packed, strided := run(4), run(64)
	if float64(strided) < 2*float64(packed) {
		t.Fatalf("stride-64 gather (%d) should be much slower than packed (%d)", strided, packed)
	}
}
