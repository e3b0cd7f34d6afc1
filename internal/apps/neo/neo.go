// Package neo implements the neo-hookean finite-elasticity application
// (§IV-C.3, Fig. 10(c)): per element, material properties and the
// deformation gradient feed ComputePK, which produces the first
// Piola-Kirchhoff stress (written back) plus two intermediate streams —
// the inverse right Cauchy-Green tensor and the displacement gradient,
// 18 values ≈ 144 bytes per element — that ComputeTangent consumes to
// build the constitutive tangent. The intermediates never reach memory
// in the stream version: the paper credits the 1.21–1.23× speedups to
// exactly this producer-consumer locality ("approximately Number of
// elements * 144 bytes" of bandwidth saved).
package neo

import (
	"fmt"
	"math"

	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// Params selects a problem size.
type Params struct {
	// Elements is the element count (Fig. 11(c) sweeps this).
	Elements int
	// Seed drives the synthetic deformation field.
	Seed int64
}

// Validate reports invalid parameters.
func (p Params) Validate() error {
	if p.Elements <= 0 {
		return fmt.Errorf("neo: Elements must be positive, got %d", p.Elements)
	}
	return nil
}

// Cost model (abstract ops per element).
const (
	pkOps      = 900  // det, inverse, PK stress, C⁻¹, DG over the element's quadrature points
	tangentOps = 1260 // 21 tangent entries from C⁻¹ and DG
)

// IntermediateBytes is the per-element size of the two streams that
// stay inside the SRF (the paper's 144 bytes).
const IntermediateBytes = 18 * 8

// Instance is one materialised problem on one machine.
type Instance struct {
	P Params
	M *sim.Machine

	// E: per-element input record: deformation gradient F (9) and
	// material constants mu, lambda (2).
	E *svm.Array
	// P9: output PK stress (9 fields).
	P9 *svm.Array
	// Tan: output tangent (21 fields, symmetric 6×6 in Voigt form).
	Tan *svm.Array
	// CGT, DG: the regular version's intermediate arrays (9 fields
	// each); the stream version never touches them.
	CGT, DG *svm.Array
}

func kfieldLayout(name, prefix string, n int) svm.RecordLayout {
	fields := make([]svm.Field, n)
	for i := range fields {
		fields[i] = svm.F(fmt.Sprintf("%s%d", prefix, i), 8)
	}
	return svm.Layout(name, fields...)
}

// NewInstance allocates and initialises the problem.
func NewInstance(p Params) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := sim.MustNew(sim.PentiumD8300())
	efields := make([]svm.Field, 11)
	for i := 0; i < 9; i++ {
		efields[i] = svm.F(fmt.Sprintf("F%d", i), 8)
	}
	efields[9] = svm.F("mu", 8)
	efields[10] = svm.F("lambda", 8)

	inst := &Instance{
		P: p, M: m,
		E:   svm.NewArray(m, "E", svm.Layout("elem", efields...), p.Elements),
		P9:  svm.NewArray(m, "P", kfieldLayout("pk", "p", 9), p.Elements),
		Tan: svm.NewArray(m, "Tan", kfieldLayout("tan", "t", 21), p.Elements),
		CGT: svm.NewArray(m, "CGT", kfieldLayout("cgt", "c", 9), p.Elements),
		DG:  svm.NewArray(m, "DG", kfieldLayout("dg", "d", 9), p.Elements),
	}
	// Deformation gradients near identity with deterministic
	// perturbations (so J > 0 everywhere), per-element material.
	for e := 0; e < p.Elements; e++ {
		h := uint64(e)*2654435761 + uint64(p.Seed)
		rnd := func() float64 {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			return float64(h%1000)/1000 - 0.5
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				v := 0.08 * rnd()
				if i == j {
					v += 1
				}
				inst.E.Set(e, i*3+j, v)
			}
		}
		inst.E.Set(e, 9, 1.0+0.5*rnd())  // mu
		inst.E.Set(e, 10, 2.0+0.5*rnd()) // lambda
	}
	return inst, nil
}

// computePK performs the per-element constitutive update: given F, mu,
// lambda it returns PK stress P = mu(F - F⁻ᵀ) + lambda·ln(J)·F⁻ᵀ, the
// inverse right Cauchy-Green tensor C⁻¹ = F⁻¹F⁻ᵀ and the displacement
// gradient DG = F - I.
func computePK(f []float64, mu, lambda float64, pOut, cgtOut, dgOut []float64) (lnJ float64) {
	// det(F)
	det := f[0]*(f[4]*f[8]-f[5]*f[7]) - f[1]*(f[3]*f[8]-f[5]*f[6]) + f[2]*(f[3]*f[7]-f[4]*f[6])
	inv := 1 / det
	// F⁻¹ via adjugate.
	var fi [9]float64
	fi[0] = (f[4]*f[8] - f[5]*f[7]) * inv
	fi[1] = (f[2]*f[7] - f[1]*f[8]) * inv
	fi[2] = (f[1]*f[5] - f[2]*f[4]) * inv
	fi[3] = (f[5]*f[6] - f[3]*f[8]) * inv
	fi[4] = (f[0]*f[8] - f[2]*f[6]) * inv
	fi[5] = (f[2]*f[3] - f[0]*f[5]) * inv
	fi[6] = (f[3]*f[7] - f[4]*f[6]) * inv
	fi[7] = (f[1]*f[6] - f[0]*f[7]) * inv
	fi[8] = (f[0]*f[4] - f[1]*f[3]) * inv
	lnJ = math.Log(det)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			fit := fi[j*3+i] // F⁻ᵀ
			pOut[i*3+j] = mu*(f[i*3+j]-fit) + lambda*lnJ*fit
			// C⁻¹ = F⁻¹ F⁻ᵀ
			cgtOut[i*3+j] = fi[i*3+0]*fi[j*3+0] + fi[i*3+1]*fi[j*3+1] + fi[i*3+2]*fi[j*3+2]
			dgOut[i*3+j] = f[i*3+j]
			if i == j {
				dgOut[i*3+j]--
			}
		}
	}
	return lnJ
}

// voigt maps the symmetric index pairs of the 6×6 tangent.
var voigt = [6][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {1, 2}, {0, 2}}

// computeTangent builds the 21 upper-triangle entries of the material
// tangent c = λ' C⁻¹⊗C⁻¹ + 2(μ − λ lnJ) C⁻¹⊙C⁻¹, with a displacement-
// gradient correction term.
func computeTangent(cgt, dg []float64, mu, lambda, lnJ float64, out []float64) {
	lp := lambda
	mp := 2 * (mu - lambda*lnJ)
	k := 0
	for a := 0; a < 6; a++ {
		for b := a; b < 6; b++ {
			i, j := voigt[a][0], voigt[a][1]
			l, mm := voigt[b][0], voigt[b][1]
			t := lp*cgt[i*3+j]*cgt[l*3+mm] +
				0.5*mp*(cgt[i*3+l]*cgt[j*3+mm]+cgt[i*3+mm]*cgt[j*3+l]) +
				0.01*dg[i*3+l]*dg[j*3+mm]
			out[k] = t
			k++
		}
	}
}

// RunRegular executes the conventional two-loop formulation: loop 1
// stores the intermediates to the CGT and DG arrays, loop 2 reads them
// back — the memory round trip the stream version avoids.
func (inst *Instance) RunRegular(ecfg exec.Config) exec.Result {
	n := inst.P.Elements
	lnJs := make([]float64, n)
	loop1 := exec.Loop{
		Name: "ComputePK", N: n,
		Ops: func(i int) int64 { return pkOps },
		Refs: func(e int, emit func(sim.Addr, int, bool)) {
			emit(inst.E.RecordAddr(e), 11*8, false)
			emit(inst.P9.RecordAddr(e), 9*8, true)
			emit(inst.CGT.RecordAddr(e), 9*8, true)
			emit(inst.DG.RecordAddr(e), 9*8, true)
		},
		Body: func(e int) {
			var f, pk, cgt, dg [9]float64
			for i := 0; i < 9; i++ {
				f[i] = inst.E.At(e, i)
			}
			lnJs[e] = computePK(f[:], inst.E.At(e, 9), inst.E.At(e, 10), pk[:], cgt[:], dg[:])
			for i := 0; i < 9; i++ {
				inst.P9.Set(e, i, pk[i])
				inst.CGT.Set(e, i, cgt[i])
				inst.DG.Set(e, i, dg[i])
			}
		},
	}
	loop2 := exec.Loop{
		Name: "ComputeTangent", N: n,
		Ops: func(i int) int64 { return tangentOps },
		Refs: func(e int, emit func(sim.Addr, int, bool)) {
			emit(inst.CGT.RecordAddr(e), 9*8, false)
			emit(inst.DG.RecordAddr(e), 9*8, false)
			emit(inst.E.FieldAddr(e, 9), 16, false) // mu, lambda
			emit(inst.Tan.RecordAddr(e), 21*8, true)
		},
		Body: func(e int) {
			var cgt, dg [9]float64
			var tan [21]float64
			for i := 0; i < 9; i++ {
				cgt[i] = inst.CGT.At(e, i)
				dg[i] = inst.DG.At(e, i)
			}
			computeTangent(cgt[:], dg[:], inst.E.At(e, 9), inst.E.At(e, 10), lnJs[e], tan[:])
			for i := 0; i < 21; i++ {
				inst.Tan.Set(e, i, tan[i])
			}
		},
	}
	return exec.RunRegular(inst.M, ecfg, loop1, loop2)
}

// Graph builds the stream program of Fig. 10(c): E is read
// sequentially, ComputePK produces the PK stress (scattered out) plus
// the CGT⁻¹ and DG streams, which ComputeTangent consumes directly —
// they never touch memory.
func (inst *Instance) Graph() *sdf.Graph {
	n := inst.P.Elements
	lnJStream := svm.NewStream("lnJ", n, svm.F("lnJ", 8))

	computePKKernel := &svm.Kernel{
		Name: "ComputePK", OpsPerElem: pkOps,
		Fn: func(ins, outs []*svm.Stream, start, cnt int) int64 {
			es := ins[0]
			pks, cgts, dgs, lnjs := outs[0], outs[1], outs[2], outs[3]
			for i := start; i < start+cnt; i++ {
				var f, pk, cgt, dg [9]float64
				for k := 0; k < 9; k++ {
					f[k] = es.At(i, k)
				}
				lnJ := computePK(f[:], es.At(i, 9), es.At(i, 10), pk[:], cgt[:], dg[:])
				for k := 0; k < 9; k++ {
					pks.Set(i, k, pk[k])
					cgts.Set(i, k, cgt[k])
					dgs.Set(i, k, dg[k])
				}
				lnjs.Set(i, 0, lnJ)
			}
			return 0
		},
	}
	computeTangentKernel := &svm.Kernel{
		Name: "ComputeTangent", OpsPerElem: tangentOps,
		Fn: func(ins, outs []*svm.Stream, start, cnt int) int64 {
			cgts, dgs, lnjs, es := ins[0], ins[1], ins[2], ins[3]
			tans := outs[0]
			for i := start; i < start+cnt; i++ {
				var cgt, dg [9]float64
				var tan [21]float64
				for k := 0; k < 9; k++ {
					cgt[k] = cgts.At(i, k)
					dg[k] = dgs.At(i, k)
				}
				computeTangent(cgt[:], dg[:], es.At(i, 0), es.At(i, 1), lnjs.At(i, 0), tan[:])
				for k := 0; k < 21; k++ {
					tans.Set(i, k, tan[k])
				}
			}
			return 0
		},
	}

	g := sdf.New("neo-hookean")
	es := g.Input(svm.StreamOf("Es", n, inst.E.Layout, inst.E.Layout.AllFields()), sdf.Bind(inst.E))
	pkOut := g.AddKernel(computePKKernel, []*sdf.Edge{es}, []*svm.Stream{
		svm.NewStream("PKs", n, kfieldLayout("", "p", 9).Fields...),
		svm.NewStream("CGTs", n, kfieldLayout("", "c", 9).Fields...),
		svm.NewStream("DGs", n, kfieldLayout("", "d", 9).Fields...),
		lnJStream,
	})
	g.Output(pkOut[0], sdf.Bind(inst.P9))
	// The material constants come in again for the tangent (selected
	// fields only: mu and lambda of the 88-byte record).
	matS := g.Input(svm.StreamOf("Mat", n, inst.E.Layout, inst.E.Layout.Select("mu", "lambda")),
		sdf.Bind(inst.E, "mu", "lambda"))
	tanOut := g.AddKernel(computeTangentKernel,
		[]*sdf.Edge{pkOut[1], pkOut[2], pkOut[3], matS},
		[]*svm.Stream{svm.NewStream("Tans", n, kfieldLayout("", "t", 21).Fields...)})
	g.Output(tanOut[0], sdf.Bind(inst.Tan))
	return g
}

// RunStream compiles and runs the stream version on both contexts.
func (inst *Instance) RunStream(ecfg exec.Config) (exec.Result, error) {
	return inst.RunStreamWith(ecfg, compiler.DefaultOptions(svm.DefaultSRF(inst.M)))
}

// RunStreamWith compiles and runs the stream version with explicit
// compiler options, for the ablations (fusion, double buffering).
func (inst *Instance) RunStreamWith(ecfg exec.Config, opt compiler.Options) (exec.Result, error) {
	prog, err := compiler.Compile(inst.Graph(), opt)
	if err != nil {
		return exec.Result{}, err
	}
	return exec.RunStream2Ctx(inst.M, prog, ecfg)
}

// Result is one regular-vs-stream comparison.
type Result struct {
	Params  Params
	Regular exec.Result
	Stream  exec.Result
	Speedup float64
	// SavedBytes is the intermediate traffic producer-consumer locality
	// avoided (the paper's elements×144 bytes).
	SavedBytes uint64
	// Graph is the stream version's dataflow graph, for post-run
	// analysis (advisor calibration against the critical path).
	Graph *sdf.Graph
}

// Run executes both versions on separate machines and verifies the
// outputs agree exactly (identical per-element arithmetic).
func Run(p Params, ecfg exec.Config) (Result, error) {
	reg, err := NewInstance(p)
	if err != nil {
		return Result{}, err
	}
	regRes := reg.RunRegular(ecfg)
	if err := ecfg.Aborted("stage"); err != nil {
		return Result{}, err
	}

	str, err := NewInstance(p)
	if err != nil {
		return Result{}, err
	}
	strRes, err := str.RunStream(ecfg)
	if err != nil {
		return Result{}, err
	}

	if err := compareRuns(reg, str); err != nil {
		return Result{}, err
	}
	return Result{
		Params:     p,
		Regular:    regRes,
		Stream:     strRes,
		Speedup:    exec.Speedup(regRes, strRes),
		SavedBytes: uint64(p.Elements) * IntermediateBytes,
		Graph:      str.Graph(),
	}, nil
}

// compareRuns checks that a stream run left exactly the regular run's
// tangents and PK stresses.
func compareRuns(reg, str *Instance) error {
	for i := range reg.Tan.Data {
		if reg.Tan.Data[i] != str.Tan.Data[i] {
			return fmt.Errorf("neo: tangent %d differs: %v vs %v", i, reg.Tan.Data[i], str.Tan.Data[i])
		}
	}
	for i := range reg.P9.Data {
		if reg.P9.Data[i] != str.P9.Data[i] {
			return fmt.Errorf("neo: PK %d differs", i)
		}
	}
	return nil
}
