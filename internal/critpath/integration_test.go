package critpath_test

import (
	"reflect"
	"testing"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/critpath"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
)

// checkPathInvariants asserts the structural invariants every critical
// path must satisfy against a real run's trace.
func checkPathInvariants(t *testing.T, name string, g *critpath.Graph, p *critpath.Path) {
	t.Helper()
	if p.Length == 0 {
		t.Fatalf("%s: empty critical path", name)
	}
	if p.Length > p.Makespan {
		t.Errorf("%s: path %d cycles exceeds makespan %d", name, p.Length, p.Makespan)
	}
	if p.Length < p.MaxCtxBusy {
		t.Errorf("%s: path %d cycles below max per-context busy %d", name, p.Length, p.MaxCtxBusy)
	}
	var sum uint64
	at := p.Start
	for i, s := range p.Segments {
		if s.Start != at || s.End <= s.Start {
			t.Fatalf("%s: segment %d not contiguous: %+v (expected start %d)", name, i, s, at)
		}
		sum += s.Cycles()
		at = s.End
	}
	if at != p.End || sum != p.Length {
		t.Errorf("%s: segments sum %d end %d, path length %d end %d", name, sum, at, p.Length, p.End)
	}
	if ident := g.Predict(critpath.Identity("ident")); ident.Delta != 0 {
		t.Errorf("%s: identity scenario predicted delta %v, want exactly 0", name, ident.Delta)
	}
}

// runQuickstart traces one quickstart run, on the reference path when
// ref is set, and builds its graph.
func runQuickstart(t *testing.T, ref bool) (*critpath.Graph, *critpath.Path) {
	t.Helper()
	tr := &exec.Trace{}
	ecfg := exec.Defaults()
	ecfg.Trace = tr
	ecfg.ReferencePath = ref
	res, err := micro.RunQuickstart(micro.Params{N: 50000, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := critpath.Build(tr, res.Stream.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	return g, g.CriticalPath()
}

// TestFastPathIdenticalCriticalPath asserts the cycle-exact bulk fast
// path changes nothing the profiler can see: the reconstructed path and
// its flattened summary are byte-identical with the fast path on and
// off.
func TestFastPathIdenticalCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("slow (reference timing path)")
	}
	_, fast := runQuickstart(t, false)
	_, slow := runQuickstart(t, true)

	if !reflect.DeepEqual(fast.Segments, slow.Segments) {
		t.Fatalf("critical path differs with fast path off:\nfast: %+v\nslow: %+v", fast.Segments, slow.Segments)
	}
	if !reflect.DeepEqual(fast.Flatten(), slow.Flatten()) {
		t.Fatalf("flattened summary differs: %v vs %v", fast.Flatten(), slow.Flatten())
	}
}

// TestInvariantsOnBundledApps reconstructs the critical path of every
// bundled experiment's stream run and checks the structural invariants
// hold on real traces — multi-phase apps, scatter-adds, multi-step
// solvers included.
func TestInvariantsOnBundledApps(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	type app struct {
		name string
		run  func(ecfg exec.Config) (exec.Result, error)
	}
	cases := []app{
		{"quickstart", func(ecfg exec.Config) (exec.Result, error) {
			r, err := micro.RunQuickstart(micro.Params{N: 50000, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}, ecfg)
			return r.Stream, err
		}},
		{"ldst", func(ecfg exec.Config) (exec.Result, error) {
			r, err := micro.RunLDST(micro.Params{N: 50000, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}, ecfg)
			return r.Stream, err
		}},
		{"gatscat", func(ecfg exec.Config) (exec.Result, error) {
			r, err := micro.RunGATSCAT(micro.Params{N: 50000, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}, ecfg)
			return r.Stream, err
		}},
		{"prodcon", func(ecfg exec.Config) (exec.Result, error) {
			r, err := micro.RunPRODCON(micro.Params{N: 50000, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}, ecfg)
			return r.Stream, err
		}},
		{"prodcon-1ctx", func(ecfg exec.Config) (exec.Result, error) {
			r, err := micro.RunPRODCON(micro.Params{N: 50000, Comp: 1, Seed: 1, SingleCtx: true, Observer: obs.NewRegistry()}, ecfg)
			return r.Stream, err
		}},
		{"fem-euler-lin", func(ecfg exec.Config) (exec.Result, error) {
			p := fem.EulerLin
			p.Steps = 1
			r, err := fem.Run(p, ecfg)
			return r.Stream, err
		}},
		{"cdp-4n4096", func(ecfg exec.Config) (exec.Result, error) {
			r, err := cdp.Run(cdp.Grid4n4096, ecfg)
			return r.Stream, err
		}},
		{"neo-8k", func(ecfg exec.Config) (exec.Result, error) {
			r, err := neo.Run(neo.Params{Elements: 8192, Seed: 1}, ecfg)
			return r.Stream, err
		}},
		{"spas-8k", func(ecfg exec.Config) (exec.Result, error) {
			r, err := spas.Run(spas.Params{Rows: 8192, NNZPerRow: spas.PaperNNZPerRow, Seed: 1}, ecfg)
			return r.Stream, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &exec.Trace{}
			ecfg := exec.Defaults()
			ecfg.Trace = tr
			res, err := c.run(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := critpath.Build(tr, res.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			p := g.CriticalPath()
			checkPathInvariants(t, c.name, g, p)
			t.Logf("%s: path %d/%d cycles (%.1f%%), %d segments, bound %s",
				c.name, p.Length, p.Makespan, 100*float64(p.Length)/float64(p.Makespan),
				len(p.Segments), p.Bound())
		})
	}
}
