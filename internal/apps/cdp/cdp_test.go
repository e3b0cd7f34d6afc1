package cdp

import (
	"testing"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Dims: []int{64}, Steps: 1}).Validate(); err == nil {
		t.Error("1D accepted")
	}
	if err := (Params{Dims: []int{4, 4, 4, 4}, Steps: 1}).Validate(); err == nil {
		t.Error("4D accepted")
	}
	if err := (Params{Dims: []int{4, 1}, Steps: 1}).Validate(); err == nil {
		t.Error("degenerate dimension accepted")
	}
	if err := (Params{Dims: []int{8, 8}, Steps: 0}).Validate(); err == nil {
		t.Error("Steps=0 accepted")
	}
}

func TestPaperConfigShapes(t *testing.T) {
	for _, tc := range []struct {
		p     Params
		cells int
		name  string
	}{
		{Grid4n4096, 4096, "4n-4096"},
		{Grid4n8192, 8192, "4n-8192"},
		{Grid6n4096, 4096, "6n-4096"},
		{Grid6n8192, 8192, "6n-8192"},
	} {
		if tc.p.Cells() != tc.cells || tc.p.Name() != tc.name {
			t.Errorf("%v: cells=%d name=%s", tc.p.Dims, tc.p.Cells(), tc.p.Name())
		}
	}
}

func TestGridConnectivity(t *testing.T) {
	inst, err := NewInstance(Params{Dims: []int{4, 3, 2}, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Interior faces: (4-1)*3*2 + 4*(3-1)*2 + 4*3*(2-1) = 18+16+12 = 46.
	if inst.F != 46 {
		t.Fatalf("faces %d, want 46", inst.F)
	}
	// Neighbour maps stay in range and are symmetric-ish: lo of hi == self
	// away from boundaries.
	for c := 0; c < inst.N; c++ {
		for i := 0; i < 2*inst.D; i++ {
			nb := int(inst.Nbr[i].Idx[c])
			if nb < 0 || nb >= inst.N {
				t.Fatalf("cell %d neighbour %d out of range", c, nb)
			}
		}
	}
	for f := 0; f < inst.F; f++ {
		l, r := int(inst.LeftIdx.Idx[f]), int(inst.RightIdx.Idx[f])
		if l == r {
			t.Fatalf("face %d degenerate", f)
		}
		if l < 0 || l >= inst.N || r < 0 || r >= inst.N {
			t.Fatalf("face %d out of range", f)
		}
	}
}

func TestStreamMatchesRegularSmall(t *testing.T) {
	for _, dims := range [][]int{{16, 12}, {8, 6, 5}} {
		res, err := Run(Params{Dims: dims, Steps: 2}, exec.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if res.Regular.Cycles == 0 || res.Stream.Cycles == 0 {
			t.Fatal("zero cycles")
		}
	}
}

func TestPhiEvolvesAndMaxResPositive(t *testing.T) {
	inst, err := NewInstance(Params{Dims: []int{16, 16}, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := inst.Phi.CloneData()
	inst.RunRegular(exec.Defaults())
	if inst.MaxRes <= 0 {
		t.Fatal("max residual not positive")
	}
	changed := false
	for i := range before {
		if before[i] != inst.Phi.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("phi did not evolve")
	}
}

func TestPaperBandAndTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Fig. 11(b): 0.94×–1.27×, improving with more neighbours and more
	// elements.
	results := map[string]float64{}
	for _, p := range []Params{Grid4n4096, Grid4n8192, Grid6n4096, Grid6n8192} {
		res, err := Run(p, exec.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		results[p.Name()] = res.Speedup
		t.Logf("%s: %.3f", p.Name(), res.Speedup)
	}
	if results["4n-4096"] < 0.80 || results["4n-4096"] > 1.15 {
		t.Errorf("4n-4096 speedup %.2f, paper ~0.94", results["4n-4096"])
	}
	if results["6n-8192"] <= results["4n-4096"] {
		t.Errorf("6n-8192 (%.2f) should beat 4n-4096 (%.2f)", results["6n-8192"], results["4n-4096"])
	}
	if results["4n-8192"] < results["4n-4096"]-0.05 {
		t.Errorf("larger mesh should not reduce the 4n speedup: %.2f -> %.2f", results["4n-4096"], results["4n-8192"])
	}
}

// TestAblationsMatchRegular runs the stream version without kernel
// fusion and without double buffering and checks its outputs against
// the regular run's. The ablations change which edges the compiler
// keeps in rings, so the size must give it more strips than buffers.
func TestAblationsMatchRegular(t *testing.T) {
	p := Params{Dims: []int{64, 64}, Steps: 1}
	for _, a := range []struct {
		name string
		mut  func(*compiler.Options)
	}{
		{"nofusion", func(o *compiler.Options) { o.FuseKernels = false }},
		{"nodouble", func(o *compiler.Options) { o.DoubleBuffer = false }},
	} {
		s := Spec(p)
		s.Options = a.mut
		res, err := driver.Run(s, exec.Defaults())
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if ringEdges(res.Graph) == 0 {
			t.Fatalf("%s: no ring-stored edge at this size", a.name)
		}
	}
}

// ringEdges counts the edges of a compiled graph that the compiler
// stores in rings.
func ringEdges(g *sdf.Graph) int {
	n := 0
	for _, e := range g.Edges {
		if e.Stream.Ring() > 0 {
			n++
		}
	}
	return n
}
