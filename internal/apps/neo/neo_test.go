package neo

import (
	"math"
	"testing"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Error("zero elements accepted")
	}
	if err := (Params{Elements: 10}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestComputePKIdentity(t *testing.T) {
	// F = I: J = 1, lnJ = 0, P = 0, C⁻¹ = I, DG = 0.
	f := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	var pk, cgt, dg [9]float64
	lnJ := computePK(f, 2.0, 3.0, pk[:], cgt[:], dg[:])
	if lnJ != 0 {
		t.Fatalf("lnJ = %v", lnJ)
	}
	for i := 0; i < 9; i++ {
		if pk[i] != 0 || dg[i] != 0 {
			t.Fatalf("P or DG nonzero at identity: %v %v", pk[i], dg[i])
		}
		want := 0.0
		if i%4 == 0 {
			want = 1
		}
		if math.Abs(cgt[i]-want) > 1e-12 {
			t.Fatalf("C⁻¹[%d] = %v", i, cgt[i])
		}
	}
}

func TestComputePKInverseProperty(t *testing.T) {
	// C⁻¹ must be symmetric positive for a well-conditioned F.
	f := []float64{1.1, 0.02, -0.03, 0.01, 0.95, 0.04, -0.02, 0.03, 1.05}
	var pk, cgt, dg [9]float64
	lnJ := computePK(f, 1.5, 2.5, pk[:], cgt[:], dg[:])
	if math.IsNaN(lnJ) || math.IsInf(lnJ, 0) {
		t.Fatalf("lnJ = %v", lnJ)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(cgt[i*3+j]-cgt[j*3+i]) > 1e-12 {
				t.Fatalf("C⁻¹ not symmetric at (%d,%d)", i, j)
			}
		}
		if cgt[i*3+i] <= 0 {
			t.Fatalf("C⁻¹ diagonal not positive")
		}
	}
}

func TestTangentSymmetricShape(t *testing.T) {
	cgt := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	dg := make([]float64, 9)
	out := make([]float64, 21)
	computeTangent(cgt, dg, 1, 2, 0, out)
	for _, v := range out {
		if math.IsNaN(v) {
			t.Fatal("NaN in tangent")
		}
	}
	// λC⁻¹⊗C⁻¹ + μ' terms at identity: entry (0,0) = λ + μ'.
	if math.Abs(out[0]-(2+2*1)) > 1e-12 {
		t.Fatalf("tangent (0,0) = %v", out[0])
	}
}

func TestStreamMatchesRegular(t *testing.T) {
	res, err := Run(Params{Elements: 5000, Seed: 1}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Regular.Cycles == 0 || res.Stream.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if IntermediateBytes != 144 {
		t.Fatalf("IntermediateBytes %d, the paper's figure is 144", IntermediateBytes)
	}
}

func TestSpeedupInPaperBand(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Fig. 11(c): 1.21×–1.23× across element counts, driven by
	// producer-consumer locality.
	for _, n := range []int{32768, 65536} {
		res, err := Run(Params{Elements: n, Seed: 2}, exec.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("elements=%d speedup %.3f", n, res.Speedup)
		if res.Speedup < 1.05 || res.Speedup > 1.55 {
			t.Errorf("elements=%d: speedup %.2f, paper band 1.21–1.23", n, res.Speedup)
		}
	}
}

func TestGraphSavesIntermediateWriteback(t *testing.T) {
	inst, err := NewInstance(Params{Elements: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// CGT, DG and lnJ streams stay internal: 19 fields × 8 bytes.
	saved := g.SavedWritebackBytes()
	if saved != 1000*19*8 {
		t.Fatalf("saved writeback %d, want %d", saved, 1000*19*8)
	}
}

// TestAblationsMatchRegular runs the stream version without kernel
// fusion and without double buffering and checks its outputs against
// the regular run's. The ablations change which edges the compiler
// keeps in rings, so the size must give it more strips than buffers.
func TestAblationsMatchRegular(t *testing.T) {
	p := Params{Elements: 5000, Seed: 1}
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
