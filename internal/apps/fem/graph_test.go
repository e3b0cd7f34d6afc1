package fem

import (
	"strings"
	"testing"

	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

func TestGraphValidatesForAllConfigs(t *testing.T) {
	for _, p := range []Params{EulerLin, EulerQuad, MHDLin, MHDQuad} {
		inst, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		phases, err := g.Phases()
		if err != nil {
			t.Fatal(err)
		}
		if len(phases) != 2 {
			t.Fatalf("%s: %d phases, want 2 (faces, cells)", p.Name(), len(phases))
		}
		// The face phase iterates faces, the cell phase cells.
		if phases[0].N != inst.Mesh.Faces || phases[1].N != inst.Mesh.Cells {
			t.Fatalf("%s: phase sizes %d/%d", p.Name(), phases[0].N, phases[1].N)
		}
	}
}

func TestGraphDotMentionsKernels(t *testing.T) {
	inst, err := NewInstance(EulerLin)
	if err != nil {
		t.Fatal(err)
	}
	dot := inst.Graph().Dot()
	for _, want := range []string{"ComputeFlux", "GatherCell", "AdvanceCell", "color=red"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot missing %q", want)
		}
	}
}

func TestFieldIndexBijective(t *testing.T) {
	for _, p := range []Params{EulerLin, MHDQuad} {
		seen := map[int]bool{}
		for k := 0; k < p.NPDE; k++ {
			for m := 0; m < p.Dof; m++ {
				fi := p.FieldIndex(k, m)
				if fi < 0 || fi >= p.K() {
					t.Fatalf("%s: FieldIndex(%d,%d)=%d out of range", p.Name(), k, m, fi)
				}
				if seen[fi] {
					t.Fatalf("%s: FieldIndex collision at %d", p.Name(), fi)
				}
				seen[fi] = true
			}
		}
		// Mode-0 fields must be the leading contiguous block (the
		// record-reorganisation optimisation the gathers rely on).
		for k := 0; k < p.NPDE; k++ {
			if p.FieldIndex(k, 0) != k {
				t.Fatalf("%s: mode-0 of pde %d at %d", p.Name(), k, p.FieldIndex(k, 0))
			}
		}
	}
}

func TestFusionAblationStillCorrect(t *testing.T) {
	p := Params{Mesh: NewMesh(10, 10), NPDE: 2, Dof: 2, Steps: 2, NoFuse: true}
	res, err := Run(p, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stream.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestAblationsMatchRegular runs the stream version without kernel
// fusion and without double buffering and checks its outputs against
// the regular run's. The ablations change which edges the compiler
// keeps in rings, so the size must give it more strips than buffers.
func TestAblationsMatchRegular(t *testing.T) {
	p := Params{Mesh: NewMesh(24, 24), NPDE: 4, Dof: 3, Steps: 2}
	ablations := []struct {
		name string
		mut  func(*compiler.Options)
	}{
		{"nofusion", func(o *compiler.Options) { o.FuseKernels = false }},
		{"nodouble", func(o *compiler.Options) { o.DoubleBuffer = false }},
	}
	reg, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	reg.RunRegular(exec.Defaults())
	for _, a := range ablations {
		str, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		opt := compiler.DefaultOptions(svm.DefaultSRF(str.M))
		a.mut(&opt)
		if ringEdges(t, str.Graph(), opt) == 0 {
			t.Fatalf("%s: no ring-stored edge at this size", a.name)
		}
		if _, err := str.RunStreamWith(exec.Defaults(), opt); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if err := compareStates("fem "+a.name, reg.U.Data, str.U.Data, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
}

// ringEdges compiles g with opt on a machine of its own and counts the
// edges the compiler stores in rings.
func ringEdges(t *testing.T, g *sdf.Graph, opt compiler.Options) int {
	t.Helper()
	opt.SRF = svm.DefaultSRF(sim.MustNew(sim.PentiumD8300()))
	if _, err := compiler.Compile(g, opt); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range g.Edges {
		if e.Stream.Ring() > 0 {
			n++
		}
	}
	return n
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		inst, err := NewInstance(Params{Mesh: NewMesh(12, 12), NPDE: 2, Dof: 2, Steps: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.RunStream(exec.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// The stream program never references the regular version's residual
// array: the flux accumulation happens through the scatter-adds only.
func TestGraphBindingsConsistent(t *testing.T) {
	inst, err := NewInstance(EulerLin)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph()
	adds := 0
	for _, e := range g.Edges {
		if e.Scatter != nil && e.Scatter.Mode != 0 {
			adds++
			if e.Scatter.Array != inst.R {
				t.Fatal("scatter-add to a non-residual array")
			}
		}
		if e.Gather != nil && e.Gather.Index == nil && len(e.Gather.Multi) == 0 {
			// Sequential gathers must cover whole arrays.
			if e.Stream.N > e.Gather.Array.N {
				t.Fatalf("sequential gather %s overruns", e.Name())
			}
		}
	}
	if adds != 2 { // Fpos and Fneg
		t.Fatalf("%d scatter-adds, want 2", adds)
	}
	_ = sdf.Binding{}
}
