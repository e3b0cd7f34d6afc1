// Package micro implements the paper's three micro-benchmarks (§IV-B,
// Fig. 9), each in regular and streaming style:
//
//   - LD-ST-COMP: sequential loads of two arrays, compute, sequential
//     store (the behaviour of streamFEM's AdvanceCell).
//   - GAT-SCAT-COMP: the same with indexed (random) gathers and
//     scatters (streamSPAS / streamFEM's GatherCell).
//   - PROD-CON: two chained loops with random inputs and outputs whose
//     intermediate array disappears into producer-consumer locality in
//     the stream version (neo-hookean's pattern).
//
// QUICKSTART, the documentation's worked example, is LD-ST-COMP's
// shape under its own names and coefficient. The COMP knob scales the
// per-element computation; COMP=1 corresponds to roughly 50 cycles per
// loaded value, as the paper states.
package micro

import (
	"fmt"
	"math/rand"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// CompUnitOps is the compute cost of COMP=1, in abstract ops
// (≈ cycles): "COMP = 1 roughly corresponds to an execution time of 50
// cycles" (Fig. 9 caption).
const CompUnitOps = 50

// Params selects a micro-benchmark configuration.
type Params struct {
	// N is the number of elements per array. The paper's speedups need
	// arrays much larger than the 1 MB L2.
	N int
	// Comp is the COMP knob (≥ 0).
	Comp int
	// Seed drives the random index patterns.
	Seed int64
	// Machine overrides the simulated machine (nil = the paper's
	// Pentium 4), for the improved-microarchitecture experiments.
	Machine *sim.Config
	// NoDoubleBuffer disables buffer renaming in the stream compile —
	// the serialised-pipeline ablation used by streamtrace and the
	// stalls experiment.
	NoDoubleBuffer bool
	// StripScale rescales the compiler's strip size (0 or 1 = as
	// chosen). Scales below 1 are always safe; the what-if machinery
	// uses them for its empirical strip-size re-runs.
	StripScale float64
	// SingleCtx runs the stream version on one hardware context (no
	// gather/compute overlap) — the 1ctx what-if counterfactual.
	SingleCtx bool
	// Observer, when non-nil, is attached to both of this run's
	// machines so the caller can read their metrics afterwards. Unlike
	// sim.SetDefaultObserver it is scoped to the run, so concurrent
	// benchmarks cannot observe each other's machines.
	Observer *obs.Registry
}

// spec wraps one micro-benchmark's instance builder in what every
// micro-benchmark shares: checked parameters, the machine override,
// the compile knobs and the context mapping.
func (p Params) spec(name string, build func(m *sim.Machine) driver.Instance) driver.Spec {
	return driver.Spec{
		Name: name, SingleCtx: p.SingleCtx, Observer: p.Observer,
		Options: func(o *compiler.Options) {
			if p.NoDoubleBuffer {
				o.DoubleBuffer = false
			}
			o.StripScale = p.StripScale
		},
		New: func() (driver.Instance, error) {
			if err := p.Validate(); err != nil {
				return driver.Instance{}, err
			}
			cfg := sim.PentiumD8300()
			if p.Machine != nil {
				cfg = *p.Machine
			}
			return build(sim.MustNew(cfg)), nil
		},
	}
}

// Validate reports invalid parameters.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("micro: N must be positive, got %d", p.N)
	}
	if p.Comp < 0 {
		return fmt.Errorf("micro: Comp must be non-negative, got %d", p.Comp)
	}
	return nil
}

// Result reports one regular-vs-stream comparison.
type Result = driver.Result

// compFn is the per-element computation both versions share: a short
// dependent chain whose length scales with COMP.
func compFn(x float64, comp int) float64 {
	r := x
	for k := 0; k < comp; k++ {
		r = r*0.9995 + 0.25
	}
	return r
}

// opsPerElem is the charged compute cost for a given COMP.
func opsPerElem(comp int) int64 {
	ops := int64(comp) * CompUnitOps
	if ops < 4 {
		ops = 4 // the add/store glue around the chain
	}
	return ops
}

func fillRandom(rng *rand.Rand, a *svm.Array) {
	a.Fill(func(i, f int) float64 { return rng.Float64() })
}

func randomIndices(rng *rand.Rand, idx *svm.IndexArray, limit int) {
	for i := range idx.Idx {
		idx.Idx[i] = int32(rng.Intn(limit))
	}
}

// LDSTSpec is LD-ST-COMP's comparison for p.
func LDSTSpec(p Params) driver.Spec {
	return p.spec("LD-ST-COMP", func(m *sim.Machine) driver.Instance { return p.newLDST(m, "ldst", "ldstcomp", 1) })
}

// RunLDST runs LD-ST-COMP in both styles and verifies they agree.
func RunLDST(p Params, ecfg exec.Config) (Result, error) { return driver.Run(LDSTSpec(p), ecfg) }

// QuickstartSpec is QUICKSTART's comparison for p. QUICKSTART is the
// documentation's worked example and the observability smoke workload:
// LD-ST-COMP's shape under its own names, computing the axpy-style
// out = comp(2.5·a + b). It is small enough to trace end to end, and
// its timeline shows every counter track — SRF occupancy, queue
// depths, outstanding misses, overlap — in a few seconds.
func QuickstartSpec(p Params) driver.Spec {
	return p.spec("QUICKSTART", func(m *sim.Machine) driver.Instance { return p.newLDST(m, "quickstart", "quickstart", 2.5) })
}

// RunQuickstart runs QUICKSTART in both styles and verifies they agree.
func RunQuickstart(p Params, ecfg exec.Config) (Result, error) {
	return driver.Run(QuickstartSpec(p), ecfg)
}

// newLDST builds one machine's LD-ST-COMP-shaped instance,
// out[i] = comp(coef·a[i] + b[i]) over sequential arrays. loop names
// the regular loop and the graph, kernel the stream kernel.
func (p Params) newLDST(m *sim.Machine, loop, kernel string, coef float64) driver.Instance {
	l := svm.Layout("rec", svm.F("v", 8))
	a := svm.NewArray(m, "a", l, p.N)
	b := svm.NewArray(m, "b", l, p.N)
	o := svm.NewArray(m, "o", l, p.N)
	rng := rand.New(rand.NewSource(p.Seed))
	fillRandom(rng, a)
	fillRandom(rng, b)
	comp := p.Comp
	return driver.Instance{
		M: m,
		// Regular: one loop, loads and stores intermixed.
		Regular: func(ecfg exec.Config) exec.Result {
			return exec.RunRegular(m, ecfg, exec.Loop{
				Name: loop, N: p.N,
				Ops: func(i int) int64 { return opsPerElem(comp) },
				Refs: func(i int, emit func(sim.Addr, int, bool)) {
					emit(a.FieldAddr(i, 0), 8, false)
					emit(b.FieldAddr(i, 0), 8, false)
					emit(o.FieldAddr(i, 0), 8, true)
				},
				Body: func(i int) { o.Set(i, 0, compFn(coef*a.At(i, 0)+b.At(i, 0), comp)) },
			})
		},
		// Stream: gather a, b → kernel → scatter o.
		Graph: func() *sdf.Graph {
			k := &svm.Kernel{
				Name: kernel, OpsPerElem: opsPerElem(comp),
				Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
					for i := start; i < start+n; i++ {
						outs[0].Set(i, 0, compFn(coef*ins[0].At(i, 0)+ins[1].At(i, 0), comp))
					}
					return 0
				},
			}
			g := sdf.New(loop)
			as := g.Input(svm.StreamOf("as", p.N, l, l.AllFields()), sdf.Bind(a))
			bs := g.Input(svm.StreamOf("bs", p.N, l, l.AllFields()), sdf.Bind(b))
			os := g.AddKernel(k, []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("os", p.N, svm.F("v", 8))})
			g.Output(os[0], sdf.Bind(o))
			return g
		},
		Outputs: func() [][]float64 { return [][]float64{o.Data} },
	}
}

// GATSCATSpec is GAT-SCAT-COMP's comparison for p.
func GATSCATSpec(p Params) driver.Spec { return p.spec("GAT-SCAT-COMP", p.newGATSCAT) }

// RunGATSCAT runs GAT-SCAT-COMP in both styles and verifies they agree.
func RunGATSCAT(p Params, ecfg exec.Config) (Result, error) {
	return driver.Run(GATSCATSpec(p), ecfg)
}

// newGATSCAT builds one machine's GAT-SCAT-COMP instance.
func (p Params) newGATSCAT(m *sim.Machine) driver.Instance {
	l := svm.Layout("rec", svm.F("v", 8))
	a := svm.NewArray(m, "a", l, p.N)
	b := svm.NewArray(m, "b", l, p.N)
	o := svm.NewArray(m, "o", l, p.N)
	ia := svm.NewIndexArray(m, "ia", p.N)
	ib := svm.NewIndexArray(m, "ib", p.N)
	io := svm.NewIndexArray(m, "io", p.N)
	rng := rand.New(rand.NewSource(p.Seed))
	fillRandom(rng, a)
	fillRandom(rng, b)
	randomIndices(rng, ia, p.N)
	randomIndices(rng, ib, p.N)
	// The scatter must not write one element twice (the two styles
	// would disagree on the winner): use a random permutation.
	for i, v := range rng.Perm(p.N) {
		io.Idx[i] = int32(v)
	}
	comp := p.Comp
	return driver.Instance{
		M: m,
		Regular: func(ecfg exec.Config) exec.Result {
			return exec.RunRegular(m, ecfg, exec.Loop{
				Name: "gatscat", N: p.N,
				Ops: func(i int) int64 { return opsPerElem(comp) },
				Refs: func(i int, emit func(sim.Addr, int, bool)) {
					emit(ia.ElemAddr(i), svm.IndexElemBytes, false)
					emit(ib.ElemAddr(i), svm.IndexElemBytes, false)
					emit(io.ElemAddr(i), svm.IndexElemBytes, false)
					emit(a.FieldAddr(int(ia.Idx[i]), 0), 8, false)
					emit(b.FieldAddr(int(ib.Idx[i]), 0), 8, false)
					emit(o.FieldAddr(int(io.Idx[i]), 0), 8, true)
				},
				Body: func(i int) {
					v := compFn(a.At(int(ia.Idx[i]), 0)+b.At(int(ib.Idx[i]), 0), comp)
					o.Set(int(io.Idx[i]), 0, v)
				},
			})
		},
		Graph: func() *sdf.Graph {
			k := &svm.Kernel{
				Name: "gatscatcomp", OpsPerElem: opsPerElem(comp),
				Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
					for i := start; i < start+n; i++ {
						outs[0].Set(i, 0, compFn(ins[0].At(i, 0)+ins[1].At(i, 0), comp))
					}
					return 0
				},
			}
			g := sdf.New("gatscat")
			as := g.Input(svm.StreamOf("as", p.N, l, l.AllFields()), sdf.Bind(a).Indexed(ia))
			bs := g.Input(svm.StreamOf("bs", p.N, l, l.AllFields()), sdf.Bind(b).Indexed(ib))
			os := g.AddKernel(k, []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("os", p.N, svm.F("v", 8))})
			g.Output(os[0], sdf.Bind(o).Indexed(io))
			return g
		},
		Outputs: func() [][]float64 { return [][]float64{o.Data} },
	}
}

// prodconFields is the width of PROD-CON's intermediate record. The
// benchmark exists to vary "the amount of producer/consumer locality",
// so the intermediate is a fat record (32 bytes, in the spirit of
// neo-hookean's 144-byte intermediates): the regular version must write
// it back and re-read it; the stream version keeps it in the SRF.
const prodconFields = 4

func prodconLayout() svm.RecordLayout {
	return svm.Layout("t", svm.F("t0", 8), svm.F("t1", 8), svm.F("t2", 8), svm.F("t3", 8))
}

// PRODCONSpec is PROD-CON's comparison for p.
func PRODCONSpec(p Params) driver.Spec { return p.spec("PROD-CON", p.newPRODCON) }

// RunPRODCON runs PROD-CON in both styles and verifies they agree. The
// stream version's intermediate never reaches memory (producer-consumer
// locality); the regular version writes and re-reads array t.
func RunPRODCON(p Params, ecfg exec.Config) (Result, error) {
	return driver.Run(PRODCONSpec(p), ecfg)
}

// newPRODCON builds one machine's PROD-CON instance.
func (p Params) newPRODCON(m *sim.Machine) driver.Instance {
	l := svm.Layout("rec", svm.F("v", 8))
	a := svm.NewArray(m, "a", l, p.N)
	b := svm.NewArray(m, "b", l, p.N)
	c := svm.NewArray(m, "c", l, p.N)
	o := svm.NewArray(m, "o", l, p.N)
	t := svm.NewArray(m, "t", prodconLayout(), p.N) // the regular code's intermediate
	ia := svm.NewIndexArray(m, "ia", p.N)
	ib := svm.NewIndexArray(m, "ib", p.N)
	ic := svm.NewIndexArray(m, "ic", p.N)
	io := svm.NewIndexArray(m, "io", p.N)
	rng := rand.New(rand.NewSource(p.Seed))
	fillRandom(rng, a)
	fillRandom(rng, b)
	fillRandom(rng, c)
	randomIndices(rng, ia, p.N)
	randomIndices(rng, ib, p.N)
	randomIndices(rng, ic, p.N)
	for i, v := range rng.Perm(p.N) {
		io.Idx[i] = int32(v)
	}
	comp := p.Comp

	// The shared per-element maths.
	produce := func(a, b float64, set func(f int, v float64)) {
		t0 := compFn(a+b, comp)
		set(0, t0)
		set(1, t0*0.5)
		set(2, t0+1)
		set(3, t0*t0)
	}
	consume := func(t0, t1, t2, t3, c float64) float64 {
		return compFn((t0+t1+t2+t3)*0.25+c, comp)
	}

	return driver.Instance{
		M: m,
		Regular: func(ecfg exec.Config) exec.Result {
			return exec.RunRegular(m, ecfg,
				exec.Loop{
					Name: "prod", N: p.N,
					Ops: func(i int) int64 { return opsPerElem(comp) },
					Refs: func(i int, emit func(sim.Addr, int, bool)) {
						emit(ia.ElemAddr(i), svm.IndexElemBytes, false)
						emit(ib.ElemAddr(i), svm.IndexElemBytes, false)
						emit(a.FieldAddr(int(ia.Idx[i]), 0), 8, false)
						emit(b.FieldAddr(int(ib.Idx[i]), 0), 8, false)
						emit(t.FieldAddr(i, 0), 8*prodconFields, true)
					},
					Body: func(i int) {
						produce(a.At(int(ia.Idx[i]), 0), b.At(int(ib.Idx[i]), 0),
							func(f int, v float64) { t.Set(i, f, v) })
					},
				},
				exec.Loop{
					Name: "con", N: p.N,
					Ops: func(i int) int64 { return opsPerElem(comp) },
					Refs: func(i int, emit func(sim.Addr, int, bool)) {
						emit(t.FieldAddr(i, 0), 8*prodconFields, false)
						emit(ic.ElemAddr(i), svm.IndexElemBytes, false)
						emit(io.ElemAddr(i), svm.IndexElemBytes, false)
						emit(c.FieldAddr(int(ic.Idx[i]), 0), 8, false)
						emit(o.FieldAddr(int(io.Idx[i]), 0), 8, true)
					},
					Body: func(i int) {
						v := consume(t.At(i, 0), t.At(i, 1), t.At(i, 2), t.At(i, 3), c.At(int(ic.Idx[i]), 0))
						o.Set(int(io.Idx[i]), 0, v)
					},
				},
			)
		},
		Graph: func() *sdf.Graph {
			k1 := &svm.Kernel{
				Name: "prod", OpsPerElem: opsPerElem(comp),
				Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
					for i := start; i < start+n; i++ {
						produce(ins[0].At(i, 0), ins[1].At(i, 0),
							func(f int, v float64) { outs[0].Set(i, f, v) })
					}
					return 0
				},
			}
			k2 := &svm.Kernel{
				Name: "con", OpsPerElem: opsPerElem(comp),
				Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
					for i := start; i < start+n; i++ {
						outs[0].Set(i, 0, consume(ins[0].At(i, 0), ins[0].At(i, 1), ins[0].At(i, 2), ins[0].At(i, 3), ins[1].At(i, 0)))
					}
					return 0
				},
			}
			g := sdf.New("prodcon")
			as := g.Input(svm.StreamOf("as", p.N, l, l.AllFields()), sdf.Bind(a).Indexed(ia))
			bs := g.Input(svm.StreamOf("bs", p.N, l, l.AllFields()), sdf.Bind(b).Indexed(ib))
			ts := g.AddKernel(k1, []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("ts", p.N,
				svm.F("t0", 8), svm.F("t1", 8), svm.F("t2", 8), svm.F("t3", 8))})
			cs := g.Input(svm.StreamOf("cs", p.N, l, l.AllFields()), sdf.Bind(c).Indexed(ic))
			os := g.AddKernel(k2, []*sdf.Edge{ts[0], cs}, []*svm.Stream{svm.NewStream("os", p.N, svm.F("v", 8))})
			g.Output(os[0], sdf.Bind(o).Indexed(io))
			return g
		},
		Outputs: func() [][]float64 { return [][]float64{o.Data} },
	}
}
