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
// The COMP knob scales the per-element computation; COMP=1 corresponds
// to roughly 50 cycles per loaded value, as the paper states.
package micro

import (
	"fmt"
	"math/rand"

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
	// Observer, when non-nil, is attached to this run's machines so
	// the caller can read their metrics afterwards. Unlike
	// sim.SetDefaultObserver it is scoped to the run, so concurrent
	// benchmarks cannot observe each other's machines.
	Observer *obs.Registry
}

// compileOptions returns the stream compile options for this run.
func (p Params) compileOptions(srf *svm.SRF) compiler.Options {
	opt := compiler.DefaultOptions(srf)
	if p.NoDoubleBuffer {
		opt.DoubleBuffer = false
	}
	opt.StripScale = p.StripScale
	return opt
}

// runStream executes the compiled stream program on the mapping the
// parameters select: both hardware contexts (the paper's default) or a
// single context for the 1ctx counterfactual.
func (p Params) runStream(m *sim.Machine, prog *compiler.Program, ecfg exec.Config) (exec.Result, error) {
	if p.SingleCtx {
		return exec.RunStream1Ctx(m, prog, ecfg)
	}
	return exec.RunStream2Ctx(m, prog, ecfg)
}

// newMachine builds the machine the benchmark runs on.
func (p Params) newMachine() *sim.Machine {
	cfg := sim.PentiumD8300()
	if p.Machine != nil {
		cfg = *p.Machine
	}
	m := sim.MustNew(cfg)
	if p.Observer != nil {
		m.SetObserver(p.Observer)
	}
	return m
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
type Result struct {
	Name    string
	Params  Params
	Regular exec.Result
	Stream  exec.Result
	Speedup float64
	// Graph is the stream version's dataflow graph, kept for post-run
	// analysis (the advisor's static estimate, critical-path
	// calibration).
	Graph *sdf.Graph
}

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

// checkEqual compares two float slices exactly (both versions perform
// the identical arithmetic in the same order per element).
func checkEqual(name string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("micro: %s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("micro: %s: element %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
	return nil
}

// ldstInstance holds one machine's arrays for LD-ST-COMP.
type ldstInstance struct {
	m       *sim.Machine
	a, b, o *svm.Array
}

func newLDST(p Params) *ldstInstance {
	m := p.newMachine()
	l := svm.Layout("rec", svm.F("v", 8))
	inst := &ldstInstance{
		m: m,
		a: svm.NewArray(m, "a", l, p.N),
		b: svm.NewArray(m, "b", l, p.N),
		o: svm.NewArray(m, "o", l, p.N),
	}
	rng := rand.New(rand.NewSource(p.Seed))
	fillRandom(rng, inst.a)
	fillRandom(rng, inst.b)
	return inst
}

// RunLDST runs LD-ST-COMP in both styles and verifies they agree.
func RunLDST(p Params, ecfg exec.Config) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	comp := p.Comp

	// Regular: one loop, loads and stores intermixed.
	reg := newLDST(p)
	regRes := exec.RunRegular(reg.m, ecfg, exec.Loop{
		Name: "ldst", N: p.N,
		Ops: func(i int) int64 { return opsPerElem(comp) },
		Refs: func(i int, emit func(sim.Addr, int, bool)) {
			emit(reg.a.FieldAddr(i, 0), 8, false)
			emit(reg.b.FieldAddr(i, 0), 8, false)
			emit(reg.o.FieldAddr(i, 0), 8, true)
		},
		Body: func(i int) {
			reg.o.Set(i, 0, compFn(reg.a.At(i, 0)+reg.b.At(i, 0), comp))
		},
	})

	// Stage boundary: a job cancelled during the regular baseline must
	// not start the stream phase (and returns no partial result).
	if err := ecfg.Aborted("stage"); err != nil {
		return Result{}, err
	}

	// Stream: gather a, b → kernel → scatter o.
	str := newLDST(p)
	l := str.a.Layout
	k := &svm.Kernel{
		Name: "ldstcomp", OpsPerElem: opsPerElem(comp),
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			for i := start; i < start+n; i++ {
				outs[0].Set(i, 0, compFn(ins[0].At(i, 0)+ins[1].At(i, 0), comp))
			}
			return 0
		},
	}
	g := sdf.New("ldst")
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

	if err := checkEqual("LD-ST-COMP", reg.o.Data, str.o.Data); err != nil {
		return Result{}, err
	}
	return Result{Name: "LD-ST-COMP", Params: p, Regular: regRes, Stream: strRes, Speedup: exec.Speedup(regRes, strRes), Graph: g}, nil
}

// gatscatInstance holds one machine's arrays for GAT-SCAT-COMP.
type gatscatInstance struct {
	m          *sim.Machine
	a, b, o    *svm.Array
	ia, ib, io *svm.IndexArray
}

func newGATSCAT(p Params) *gatscatInstance {
	m := p.newMachine()
	l := svm.Layout("rec", svm.F("v", 8))
	inst := &gatscatInstance{
		m:  m,
		a:  svm.NewArray(m, "a", l, p.N),
		b:  svm.NewArray(m, "b", l, p.N),
		o:  svm.NewArray(m, "o", l, p.N),
		ia: svm.NewIndexArray(m, "ia", p.N),
		ib: svm.NewIndexArray(m, "ib", p.N),
		io: svm.NewIndexArray(m, "io", p.N),
	}
	rng := rand.New(rand.NewSource(p.Seed))
	fillRandom(rng, inst.a)
	fillRandom(rng, inst.b)
	randomIndices(rng, inst.ia, p.N)
	randomIndices(rng, inst.ib, p.N)
	// The scatter must not write one element twice (the two styles
	// would disagree on the winner): use a random permutation.
	perm := rng.Perm(p.N)
	for i, v := range perm {
		inst.io.Idx[i] = int32(v)
	}
	return inst
}

// RunGATSCAT runs GAT-SCAT-COMP in both styles and verifies they agree.
func RunGATSCAT(p Params, ecfg exec.Config) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	comp := p.Comp

	reg := newGATSCAT(p)
	regRes := exec.RunRegular(reg.m, ecfg, exec.Loop{
		Name: "gatscat", N: p.N,
		Ops: func(i int) int64 { return opsPerElem(comp) },
		Refs: func(i int, emit func(sim.Addr, int, bool)) {
			emit(reg.ia.ElemAddr(i), svm.IndexElemBytes, false)
			emit(reg.ib.ElemAddr(i), svm.IndexElemBytes, false)
			emit(reg.io.ElemAddr(i), svm.IndexElemBytes, false)
			emit(reg.a.FieldAddr(int(reg.ia.Idx[i]), 0), 8, false)
			emit(reg.b.FieldAddr(int(reg.ib.Idx[i]), 0), 8, false)
			emit(reg.o.FieldAddr(int(reg.io.Idx[i]), 0), 8, true)
		},
		Body: func(i int) {
			v := compFn(reg.a.At(int(reg.ia.Idx[i]), 0)+reg.b.At(int(reg.ib.Idx[i]), 0), comp)
			reg.o.Set(int(reg.io.Idx[i]), 0, v)
		},
	})

	if err := ecfg.Aborted("stage"); err != nil {
		return Result{}, err
	}

	str := newGATSCAT(p)
	l := str.a.Layout
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
	as := g.Input(svm.StreamOf("as", p.N, l, l.AllFields()), sdf.Bind(str.a).Indexed(str.ia))
	bs := g.Input(svm.StreamOf("bs", p.N, l, l.AllFields()), sdf.Bind(str.b).Indexed(str.ib))
	os := g.AddKernel(k, []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("os", p.N, svm.F("v", 8))})
	g.Output(os[0], sdf.Bind(str.o).Indexed(str.io))
	prog, err := compiler.Compile(g, p.compileOptions(svm.DefaultSRF(str.m)))
	if err != nil {
		return Result{}, err
	}
	strRes, err := p.runStream(str.m, prog, ecfg)
	if err != nil {
		return Result{}, err
	}

	if err := checkEqual("GAT-SCAT-COMP", reg.o.Data, str.o.Data); err != nil {
		return Result{}, err
	}
	return Result{Name: "GAT-SCAT-COMP", Params: p, Regular: regRes, Stream: strRes, Speedup: exec.Speedup(regRes, strRes), Graph: g}, nil
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

// prodconInstance holds one machine's arrays for PROD-CON.
type prodconInstance struct {
	m          *sim.Machine
	a, b, c, o *svm.Array
	t          *svm.Array // the regular code's intermediate
	ia, ib, ic *svm.IndexArray
	io         *svm.IndexArray
}

func newPRODCON(p Params) *prodconInstance {
	m := p.newMachine()
	l := svm.Layout("rec", svm.F("v", 8))
	inst := &prodconInstance{
		m:  m,
		a:  svm.NewArray(m, "a", l, p.N),
		b:  svm.NewArray(m, "b", l, p.N),
		c:  svm.NewArray(m, "c", l, p.N),
		o:  svm.NewArray(m, "o", l, p.N),
		t:  svm.NewArray(m, "t", prodconLayout(), p.N),
		ia: svm.NewIndexArray(m, "ia", p.N),
		ib: svm.NewIndexArray(m, "ib", p.N),
		ic: svm.NewIndexArray(m, "ic", p.N),
		io: svm.NewIndexArray(m, "io", p.N),
	}
	rng := rand.New(rand.NewSource(p.Seed))
	fillRandom(rng, inst.a)
	fillRandom(rng, inst.b)
	fillRandom(rng, inst.c)
	randomIndices(rng, inst.ia, p.N)
	randomIndices(rng, inst.ib, p.N)
	randomIndices(rng, inst.ic, p.N)
	perm := rng.Perm(p.N)
	for i, v := range perm {
		inst.io.Idx[i] = int32(v)
	}
	return inst
}

// RunPRODCON runs PROD-CON in both styles and verifies they agree. The
// stream version's intermediate never reaches memory (producer-consumer
// locality); the regular version writes and re-reads array t.
func RunPRODCON(p Params, ecfg exec.Config) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
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

	reg := newPRODCON(p)
	regRes := exec.RunRegular(reg.m, ecfg,
		exec.Loop{
			Name: "prod", N: p.N,
			Ops: func(i int) int64 { return opsPerElem(comp) },
			Refs: func(i int, emit func(sim.Addr, int, bool)) {
				emit(reg.ia.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.ib.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.a.FieldAddr(int(reg.ia.Idx[i]), 0), 8, false)
				emit(reg.b.FieldAddr(int(reg.ib.Idx[i]), 0), 8, false)
				emit(reg.t.FieldAddr(i, 0), 8*prodconFields, true)
			},
			Body: func(i int) {
				produce(reg.a.At(int(reg.ia.Idx[i]), 0), reg.b.At(int(reg.ib.Idx[i]), 0),
					func(f int, v float64) { reg.t.Set(i, f, v) })
			},
		},
		exec.Loop{
			Name: "con", N: p.N,
			Ops: func(i int) int64 { return opsPerElem(comp) },
			Refs: func(i int, emit func(sim.Addr, int, bool)) {
				emit(reg.t.FieldAddr(i, 0), 8*prodconFields, false)
				emit(reg.ic.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.io.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.c.FieldAddr(int(reg.ic.Idx[i]), 0), 8, false)
				emit(reg.o.FieldAddr(int(reg.io.Idx[i]), 0), 8, true)
			},
			Body: func(i int) {
				v := consume(reg.t.At(i, 0), reg.t.At(i, 1), reg.t.At(i, 2), reg.t.At(i, 3),
					reg.c.At(int(reg.ic.Idx[i]), 0))
				reg.o.Set(int(reg.io.Idx[i]), 0, v)
			},
		},
	)

	if err := ecfg.Aborted("stage"); err != nil {
		return Result{}, err
	}

	str := newPRODCON(p)
	l := str.a.Layout
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
	as := g.Input(svm.StreamOf("as", p.N, l, l.AllFields()), sdf.Bind(str.a).Indexed(str.ia))
	bs := g.Input(svm.StreamOf("bs", p.N, l, l.AllFields()), sdf.Bind(str.b).Indexed(str.ib))
	ts := g.AddKernel(k1, []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("ts", p.N,
		svm.F("t0", 8), svm.F("t1", 8), svm.F("t2", 8), svm.F("t3", 8))})
	cs := g.Input(svm.StreamOf("cs", p.N, l, l.AllFields()), sdf.Bind(str.c).Indexed(str.ic))
	os := g.AddKernel(k2, []*sdf.Edge{ts[0], cs}, []*svm.Stream{svm.NewStream("os", p.N, svm.F("v", 8))})
	g.Output(os[0], sdf.Bind(str.o).Indexed(str.io))
	prog, err := compiler.Compile(g, p.compileOptions(svm.DefaultSRF(str.m)))
	if err != nil {
		return Result{}, err
	}
	strRes, err := p.runStream(str.m, prog, ecfg)
	if err != nil {
		return Result{}, err
	}

	if err := checkEqual("PROD-CON", reg.o.Data, str.o.Data); err != nil {
		return Result{}, err
	}
	return Result{Name: "PROD-CON", Params: p, Regular: regRes, Stream: strRes, Speedup: exec.Speedup(regRes, strRes), Graph: g}, nil
}
