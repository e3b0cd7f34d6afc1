package micro

import (
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// QUICKSTART is the documentation's worked example and the observability
// smoke workload: a sequential axpy-style loop (out = comp(2.5·a + b))
// small enough to trace end to end, with the same structure as
// LD-ST-COMP so its timeline shows every counter track — SRF occupancy,
// queue depths, outstanding misses, overlap — in a few seconds.

// RunQuickstart runs QUICKSTART in both styles and verifies they agree.
func RunQuickstart(p Params, ecfg exec.Config) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	comp := p.Comp

	reg := newLDST(p)
	regRes := exec.RunRegular(reg.m, ecfg, exec.Loop{
		Name: "quickstart", N: p.N,
		Ops: func(i int) int64 { return opsPerElem(comp) },
		Refs: func(i int, emit func(sim.Addr, int, bool)) {
			emit(reg.a.FieldAddr(i, 0), 8, false)
			emit(reg.b.FieldAddr(i, 0), 8, false)
			emit(reg.o.FieldAddr(i, 0), 8, true)
		},
		Body: func(i int) {
			reg.o.Set(i, 0, compFn(2.5*reg.a.At(i, 0)+reg.b.At(i, 0), comp))
		},
	})

	if err := ecfg.Aborted("stage"); err != nil {
		return Result{}, err
	}

	str := newLDST(p)
	l := str.a.Layout
	k := &svm.Kernel{
		Name: "quickstart", OpsPerElem: opsPerElem(comp),
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			for i := start; i < start+n; i++ {
				outs[0].Set(i, 0, compFn(2.5*ins[0].At(i, 0)+ins[1].At(i, 0), comp))
			}
			return 0
		},
	}
	g := sdf.New("quickstart")
	as := g.Input(svm.StreamOf("as", p.N, l, l.AllFields()), sdf.Bind(str.a))
	bs := g.Input(svm.StreamOf("bs", p.N, l, l.AllFields()), sdf.Bind(str.b))
	os := g.AddKernel(k, []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("os", p.N, svm.F("v", 8))})
	g.Output(os[0], sdf.Bind(str.o))
	prog, err := compiler.Compile(g, p.compileOptions(svm.DefaultSRF(str.m)))
	if err != nil {
		return Result{}, err
	}
	strRes, err := p.runStream(str.m, prog, ecfg)
	if err != nil {
		return Result{}, err
	}

	if err := checkEqual("QUICKSTART", reg.o.Data, str.o.Data); err != nil {
		return Result{}, err
	}
	return Result{Name: "QUICKSTART", Params: p, Regular: regRes, Stream: strRes, Speedup: exec.Speedup(regRes, strRes), Graph: g}, nil
}
