package streamgpp_test

import (
	"testing"

	"streamgpp"
)

// TestFacadeEndToEnd drives the whole system through the public API
// only: build a two-kernel program with an indexed scatter, compile,
// run on both contexts, and verify against a regular-loop run.
func TestFacadeEndToEnd(t *testing.T) {
	const n = 20000
	layout := streamgpp.Layout("rec", streamgpp.F("v", 8))

	newArrays := func(m *streamgpp.Machine) (a, b, out *streamgpp.Array, idx *streamgpp.IndexArray) {
		a = streamgpp.NewArray(m, "a", layout, n)
		b = streamgpp.NewArray(m, "b", layout, n)
		out = streamgpp.NewArray(m, "out", layout, n)
		a.Fill(func(i, f int) float64 { return float64(i % 17) })
		b.Fill(func(i, f int) float64 { return float64(i % 23) })
		idx = streamgpp.NewIndexArray(m, "idx", n)
		for i := range idx.Idx {
			idx.Idx[i] = int32((i*7 + 3) % n)
		}
		return
	}

	// Regular.
	mr := streamgpp.NewMachine()
	a1, b1, o1, idx1 := newArrays(mr)
	reg := streamgpp.RunRegular(mr, streamgpp.DefaultExec(), streamgpp.Loop{
		Name: "loop", N: n,
		Ops: func(i int) int64 { return 8 },
		Refs: func(i int, emit func(addr uint64, size int, write bool)) {
			emit(a1.FieldAddr(i, 0), 8, false)
			emit(b1.FieldAddr(i, 0), 8, false)
			emit(o1.FieldAddr(int(idx1.Idx[i]), 0), 8, true)
		},
		Body: func(i int) { o1.Set(int(idx1.Idx[i]), 0, a1.At(i, 0)*2+b1.At(i, 0)) },
	})

	// Stream.
	ms := streamgpp.NewMachine()
	a2, b2, o2, idx2 := newArrays(ms)
	k := &streamgpp.Kernel{Name: "k", OpsPerElem: 8,
		Fn: func(ins, outs []*streamgpp.Stream, start, cnt int) int64 {
			for i := start; i < start+cnt; i++ {
				outs[0].Set(i, 0, ins[0].At(i, 0)*2+ins[1].At(i, 0))
			}
			return 0
		}}
	g := streamgpp.NewGraph("facade")
	as := g.Input(streamgpp.StreamOf("as", n, layout, layout.AllFields()), streamgpp.Bind(a2))
	bs := g.Input(streamgpp.StreamOf("bs", n, layout, layout.AllFields()), streamgpp.Bind(b2))
	os := g.AddKernel(k, []*streamgpp.Edge{as, bs},
		[]*streamgpp.Stream{streamgpp.NewStream("os", n, streamgpp.F("v", 8))})
	g.Output(os[0], streamgpp.Bind(o2).Indexed(idx2))

	prog, err := streamgpp.Compile(g, streamgpp.DefaultOptions(streamgpp.DefaultSRF(ms)))
	if err != nil {
		t.Fatal(err)
	}
	str, err := streamgpp.RunStream(ms, prog, streamgpp.DefaultExec())
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if o1.At(i, 0) != o2.At(i, 0) {
			t.Fatalf("out[%d]: %v vs %v", i, o1.At(i, 0), o2.At(i, 0))
		}
	}
	if reg.Cycles == 0 || str.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if sp := streamgpp.Speedup(reg, str); sp <= 0 {
		t.Fatalf("speedup %v", sp)
	}
}

// TestFacadeSingleContext exercises the 1-context executor and the
// custom-machine constructor through the facade.
func TestFacadeSingleContext(t *testing.T) {
	cfg := streamgpp.PentiumD8300()
	cfg.L2Bytes = 512 << 10
	m, err := streamgpp.NewMachineWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := streamgpp.Layout("rec", streamgpp.F("v", 8))
	a := streamgpp.NewArray(m, "a", layout, 5000)
	o := streamgpp.NewArray(m, "o", layout, 5000)
	a.Fill(func(i, f int) float64 { return float64(i) })

	double := &streamgpp.Kernel{Name: "double", OpsPerElem: 2,
		Fn: func(ins, outs []*streamgpp.Stream, start, cnt int) int64 {
			for i := start; i < start+cnt; i++ {
				outs[0].Set(i, 0, 2*ins[0].At(i, 0))
			}
			return 0
		}}
	g := streamgpp.NewGraph("double")
	as := g.Input(streamgpp.StreamOf("as", 5000, layout, layout.AllFields()), streamgpp.Bind(a))
	os := g.AddKernel(double, []*streamgpp.Edge{as},
		[]*streamgpp.Stream{streamgpp.NewStream("os", 5000, streamgpp.F("v", 8))})
	g.Output(os[0], streamgpp.Bind(o))

	srf, err := streamgpp.NewSRF(m, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := streamgpp.Compile(g, streamgpp.DefaultOptions(srf))
	if err != nil {
		t.Fatal(err)
	}
	res, err := streamgpp.RunStream1Ctx(m, prog, streamgpp.DefaultExec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if o.At(4999, 0) != 9998 {
		t.Fatalf("o[4999] = %v", o.At(4999, 0))
	}
}

// TestFacadeInvalidConfig checks error propagation.
func TestFacadeInvalidConfig(t *testing.T) {
	cfg := streamgpp.PentiumD8300()
	cfg.FreqHz = 0
	if _, err := streamgpp.NewMachineWith(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFacadeWaitPolicies runs a program under each wait policy.
func TestFacadeWaitPolicies(t *testing.T) {
	for _, pol := range []streamgpp.WaitPolicy{
		streamgpp.PolicyPause, streamgpp.PolicyMwait, streamgpp.PolicyOS,
	} {
		m := streamgpp.NewMachine()
		layout := streamgpp.Layout("rec", streamgpp.F("v", 8))
		a := streamgpp.NewArray(m, "a", layout, 3000)
		o := streamgpp.NewArray(m, "o", layout, 3000)
		inc := &streamgpp.Kernel{Name: "inc", OpsPerElem: 2,
			Fn: func(ins, outs []*streamgpp.Stream, start, cnt int) int64 {
				for i := start; i < start+cnt; i++ {
					outs[0].Set(i, 0, ins[0].At(i, 0)+1)
				}
				return 0
			}}
		g := streamgpp.NewGraph("inc")
		as := g.Input(streamgpp.StreamOf("as", 3000, layout, layout.AllFields()), streamgpp.Bind(a))
		os := g.AddKernel(inc, []*streamgpp.Edge{as},
			[]*streamgpp.Stream{streamgpp.NewStream("os", 3000, streamgpp.F("v", 8))})
		g.Output(os[0], streamgpp.Bind(o))
		prog, err := streamgpp.Compile(g, streamgpp.DefaultOptions(streamgpp.DefaultSRF(m)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := streamgpp.DefaultExec()
		cfg.WaitPolicy = pol
		res, err := streamgpp.RunStream(m, prog, cfg)
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if res.Cycles == 0 {
			t.Fatalf("policy %v: no cycles", pol)
		}
		if o.At(0, 0) != 1 {
			t.Fatalf("policy %v: wrong result", pol)
		}
	}
}

// TestFacadeFaultInjection drives the robustness layer through the
// public API: a seeded injector faults every kernel a bounded number
// of times, the run absorbs the faults by strip retry, and the
// recovery accounting and replayable trace are visible to the caller.
func TestFacadeFaultInjection(t *testing.T) {
	build := func(inj *streamgpp.FaultInjector) (*streamgpp.Machine, *streamgpp.Array) {
		m := streamgpp.NewMachine()
		l := streamgpp.Layout("rec", streamgpp.F("v", 8))
		a := streamgpp.NewArray(m, "a", l, 5000)
		a.Fill(func(i, f int) float64 { return float64(i) })
		o := streamgpp.NewArray(m, "o", l, 5000)
		inc := &streamgpp.Kernel{Name: "inc", OpsPerElem: 1,
			Fn: func(ins, outs []*streamgpp.Stream, start, n int) int64 {
				for i := start; i < start+n; i++ {
					outs[0].Set(i, 0, ins[0].At(i, 0)+1)
				}
				return 0
			}}
		g := streamgpp.NewGraph("flt")
		as := g.Input(streamgpp.StreamOf("as", 5000, l, l.AllFields()), streamgpp.Bind(a))
		os := g.AddKernel(inc, []*streamgpp.Edge{as},
			[]*streamgpp.Stream{streamgpp.NewStream("os", 5000, streamgpp.F("v", 8))})
		g.Output(os[0], streamgpp.Bind(o))
		prog, err := streamgpp.Compile(g, streamgpp.DefaultOptions(streamgpp.DefaultSRF(m)))
		if err != nil {
			t.Fatal(err)
		}
		ecfg := streamgpp.DefaultExec()
		ecfg.Fault = inj
		res, err := streamgpp.RunStream(m, prog, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery.Any() && m.FaultInjector() == nil {
			t.Fatal("recovery activity without an injector")
		}
		_ = res
		return m, o
	}
	// Reference, no faults.
	_, ref := build(nil)

	fcfg, err := streamgpp.ParseFaultSpec("kernel_fault:1")
	if err != nil {
		t.Fatal(err)
	}
	fcfg.Seed = 11
	fcfg.MaxPerKind[streamgpp.FaultKernelFault] = 2
	inj := streamgpp.NewFaultInjector(fcfg)

	_, o := build(inj)
	if inj.Injected(streamgpp.FaultKernelFault) != 2 {
		t.Fatalf("injected %d kernel faults, want 2", inj.Injected(streamgpp.FaultKernelFault))
	}
	if inj.TraceString() == "" {
		t.Fatal("no fault trace recorded")
	}
	for i := 0; i < 5000; i++ {
		if o.At(i, 0) != ref.At(i, 0) {
			t.Fatalf("o[%d] wrong after retried faults", i)
		}
	}
}
