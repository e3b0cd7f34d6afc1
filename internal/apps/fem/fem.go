package fem

import (
	"fmt"
	"math"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// Params selects a streamFEM configuration (§IV-C.1).
type Params struct {
	// Mesh is the triangular mesh; nil selects the paper's 4816 cells.
	Mesh *Mesh
	// NPDE is the number of PDEs: 4 for Euler, 6 for MHD.
	NPDE int
	// Dof is the polynomial degrees of freedom: 3 linear, 10 quadratic.
	Dof int
	// Steps is the number of time steps to run.
	Steps int
	// NoFuse disables the GatherCell/AdvanceCell kernel fusion the
	// paper applies (on by default; exposed for the ablations).
	NoFuse bool
}

// Standard configurations from Fig. 11(a).
var (
	EulerLin  = Params{NPDE: 4, Dof: 3, Steps: 3}
	EulerQuad = Params{NPDE: 4, Dof: 10, Steps: 3}
	MHDLin    = Params{NPDE: 6, Dof: 3, Steps: 3}
	MHDQuad   = Params{NPDE: 6, Dof: 10, Steps: 3}
)

// Name returns the Fig. 11(a) label for the configuration.
func (p Params) Name() string {
	pde := "Euler"
	if p.NPDE == 6 {
		pde = "MHD"
	} else if p.NPDE != 4 {
		pde = fmt.Sprintf("PDE%d", p.NPDE)
	}
	space := "lin"
	if p.Dof == 10 {
		space = "quad"
	} else if p.Dof != 3 {
		space = fmt.Sprintf("dof%d", p.Dof)
	}
	return pde + "-" + space
}

// Validate reports invalid parameters.
func (p Params) Validate() error {
	if p.NPDE <= 0 || p.Dof <= 0 {
		return fmt.Errorf("fem: NPDE and Dof must be positive (%d, %d)", p.NPDE, p.Dof)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("fem: Steps must be positive (%d)", p.Steps)
	}
	return nil
}

// K returns the per-cell field count (nPDE × dof).
func (p Params) K() int { return p.NPDE * p.Dof }

// FieldIndex maps (pde k, mode m) to the physical field index of the
// mode-major record layout: all mode-0 coefficients first, then the
// higher modes. This is the paper's record-reorganisation optimisation
// (§II-B): the flux kernel reads only mode-0 values, and mode-major
// order makes them one contiguous block the gather can move with a
// single block copy.
func (p Params) FieldIndex(k, m int) int {
	if m == 0 {
		return k
	}
	return p.NPDE + k*(p.Dof-1) + (m - 1)
}

const dt = 1e-3

// Cost model constants (abstract ops): tuned so arithmetic intensity
// scales with the configuration as in the paper — linear spaces are
// memory-bound, quadratic ones compute-bound (the mass-matrix solve is
// O(dof²) per PDE, so quadratic spaces do ~11× the cell work on ~3×
// the data).
const (
	fluxOpsPerPDE  = 20 // Rusanov flux evaluation per equation
	expandOpsPerK  = 4  // mode projection per (pde, mode) pair
	advanceOpsPerK = 6  // state update per field
	faceGeomOps    = 8  // per-face geometry handling
)

func fluxKernelOps(p Params) int64 {
	return int64(faceGeomOps + fluxOpsPerPDE*p.NPDE + expandOpsPerK*p.K()*2)
}

// massSolveOps is the per-cell cost of applying the dof×dof inverse
// mass matrix to every PDE's residual.
func massSolveOps(p Params) int64 {
	return int64(2 * p.NPDE * p.Dof * p.Dof)
}

// massInv returns the (m, m') entry of the synthetic inverse mass
// matrix stored per cell (diagonally dominant, mode-coupled).
func massInv(m, mp int) float64 {
	v := 1 / float64(1+m+mp)
	if m != mp {
		v *= 0.1
	}
	return v
}

// flux computes the Rusanov numerical flux for one face and one PDE.
func flux(uL, uR, v, length float64) float64 {
	return (0.5*v*(uL+uR) - 0.5*math.Abs(v)*(uR-uL)) * length
}

// modeWeight projects a face flux onto polynomial mode m.
func modeWeight(m int) float64 { return 1 / float64(1+m) }

// Instance is one materialised FEM problem on one machine.
type Instance struct {
	P    Params
	Mesh *Mesh
	M    *sim.Machine

	U, R     *svm.Array // cell state and residual, K fields each
	Uold     *svm.Array // previous-level state (two-level integrator)
	Aux      *svm.Array // per-cell dof×dof inverse mass matrix
	FaceGeom *svm.Array // vel, len per face
	CellGeom *svm.Array // area per cell
	LeftIdx  *svm.IndexArray
	RightIdx *svm.IndexArray

	// Stream-version structures (Fig. 10(a)): per-face fluxes stored
	// sequentially, then gathered per cell through the cell→face map.
	Flux     *svm.Array // K fields per face
	Sign     *svm.Array // 3 fields per cell: flux orientation
	CellFace [3]*svm.IndexArray
}

// NewInstance allocates and initialises the problem on a fresh machine.
func NewInstance(p Params) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mesh := p.Mesh
	if mesh == nil {
		mesh = PaperMesh()
	}
	m := sim.MustNew(sim.PentiumD8300())
	K := p.K()

	ufields := make([]svm.Field, K)
	for i := range ufields {
		ufields[i] = svm.F(fmt.Sprintf("u%d", i), 8)
	}
	afields := make([]svm.Field, p.Dof*p.Dof)
	for i := range afields {
		afields[i] = svm.F(fmt.Sprintf("m%d", i), 8)
	}
	inst := &Instance{
		P: p, Mesh: mesh, M: m,
		U:        svm.NewArray(m, "U", svm.Layout("cell", ufields...), mesh.Cells),
		Uold:     svm.NewArray(m, "Uold", svm.Layout("old", ufields...), mesh.Cells),
		R:        svm.NewArray(m, "R", svm.Layout("res", ufields...), mesh.Cells),
		Aux:      svm.NewArray(m, "Aux", svm.Layout("aux", afields...), mesh.Cells),
		FaceGeom: svm.NewArray(m, "face", svm.Layout("face", svm.F("vel", 8), svm.F("len", 8)), mesh.Faces),
		CellGeom: svm.NewArray(m, "geom", svm.Layout("geom", svm.F("area", 8)), mesh.Cells),
		LeftIdx:  svm.NewIndexArray(m, "left", mesh.Faces),
		RightIdx: svm.NewIndexArray(m, "right", mesh.Faces),
	}
	for f := 0; f < mesh.Faces; f++ {
		inst.LeftIdx.Idx[f] = mesh.Left[f]
		inst.RightIdx.Idx[f] = mesh.Right[f]
		inst.FaceGeom.Set(f, 0, mesh.Vel[f])
		inst.FaceGeom.Set(f, 1, mesh.Len[f])
	}
	for c := 0; c < mesh.Cells; c++ {
		inst.CellGeom.Set(c, 0, mesh.Area[c])
		// Per-cell mass matrices, perturbed by a cell-dependent factor
		// (on a real unstructured mesh every cell's matrix differs).
		jac := 1 + 0.1*float64(c%7)/7
		for mm := 0; mm < p.Dof; mm++ {
			for mp := 0; mp < p.Dof; mp++ {
				inst.Aux.Set(c, mm*p.Dof+mp, massInv(mm, mp)*jac)
			}
		}
	}
	setPhys := func(a *svm.Array) func(int, int, float64) {
		return func(c, f int, v float64) {
			a.Set(c, p.FieldIndex(f/p.Dof, f%p.Dof), v)
		}
	}
	mesh.InitBlastWave(p.NPDE, p.Dof, setPhys(inst.U))
	mesh.InitBlastWave(p.NPDE, p.Dof, setPhys(inst.Uold))
	return inst, nil
}

// modeZeroFields returns the field indices of the mode-0 coefficient of
// every PDE — the only fields the flux kernel reads, so gathers copy
// just those (the paper's selective field copy).
func (p Params) modeZeroFields() []int {
	out := make([]int, p.NPDE)
	for k := range out {
		out[k] = p.FieldIndex(k, 0)
	}
	return out
}

// RunRegular executes Steps time steps in conventional style:
// interleaved loops over faces and cells.
func (inst *Instance) RunRegular(ecfg exec.Config) exec.Result {
	p, mesh := inst.P, inst.Mesh
	K := p.K()
	m0 := p.modeZeroFields()

	faceLoop := exec.Loop{
		Name: "faces", N: mesh.Faces,
		Ops: func(i int) int64 { return fluxKernelOps(p) },
		Refs: func(f int, emit func(sim.Addr, int, bool)) {
			emit(inst.LeftIdx.ElemAddr(f), svm.IndexElemBytes, false)
			emit(inst.RightIdx.ElemAddr(f), svm.IndexElemBytes, false)
			emit(inst.FaceGeom.RecordAddr(f), 16, false)
			l, r := int(inst.LeftIdx.Idx[f]), int(inst.RightIdx.Idx[f])
			_ = m0
			emit(inst.U.FieldAddr(l, 0), 8*p.NPDE, false)
			emit(inst.U.FieldAddr(r, 0), 8*p.NPDE, false)
			// Residual read-modify-write on both sides, all K fields.
			emit(inst.R.RecordAddr(l), K*8, false)
			emit(inst.R.RecordAddr(l), K*8, true)
			emit(inst.R.RecordAddr(r), K*8, false)
			emit(inst.R.RecordAddr(r), K*8, true)
		},
		Body: func(f int) {
			l, r := int(inst.LeftIdx.Idx[f]), int(inst.RightIdx.Idx[f])
			v, ln := inst.FaceGeom.At(f, 0), inst.FaceGeom.At(f, 1)
			for k := 0; k < p.NPDE; k++ {
				fl := flux(inst.U.At(l, p.FieldIndex(k, 0)), inst.U.At(r, p.FieldIndex(k, 0)), v, ln)
				for md := 0; md < p.Dof; md++ {
					w := fl * modeWeight(md)
					inst.R.Add(l, p.FieldIndex(k, md), -w)
					inst.R.Add(r, p.FieldIndex(k, md), +w)
				}
			}
		},
	}
	cellLoop := exec.Loop{
		Name: "cells", N: mesh.Cells,
		Ops: func(i int) int64 { return massSolveOps(p) + int64(advanceOpsPerK*K) },
		Refs: func(c int, emit func(sim.Addr, int, bool)) {
			emit(inst.CellGeom.RecordAddr(c), 8, false)
			emit(inst.Aux.RecordAddr(c), p.Dof*p.Dof*8, false)
			emit(inst.R.RecordAddr(c), K*8, false)
			emit(inst.U.RecordAddr(c), K*8, false)
			emit(inst.Uold.RecordAddr(c), K*8, false)
			emit(inst.U.RecordAddr(c), K*8, true)
			emit(inst.Uold.RecordAddr(c), K*8, true)
			emit(inst.R.RecordAddr(c), K*8, true)
		},
		Body: func(c int) {
			area := inst.CellGeom.At(c, 0)
			for k := 0; k < p.NPDE; k++ {
				for md := 0; md < p.Dof; md++ {
					var acc float64
					for mp := 0; mp < p.Dof; mp++ {
						acc += inst.Aux.At(c, md*p.Dof+mp) * inst.R.At(c, p.FieldIndex(k, mp))
					}
					kk := p.FieldIndex(k, md)
					u := inst.U.At(c, kk)
					inst.U.Set(c, kk, 0.6*u+0.4*inst.Uold.At(c, kk)+dt*acc/area)
					inst.Uold.Set(c, kk, u)
				}
			}
			for k := 0; k < K; k++ {
				inst.R.Set(c, k, 0)
			}
		},
	}

	total, _ := driver.Steps(p.Steps, func() (exec.Result, error) {
		return exec.RunRegular(inst.M, ecfg, faceLoop, cellLoop), nil
	})
	return total
}

// Graph builds the streamFEM SDF graph of Fig. 10(a): a face phase
// (one multi-index gather pulls both cells' mode-0 coefficients per
// face, ComputeFlux evaluates the Rusanov fluxes, and the per-mode
// contributions scatter-add into the residual array through the
// left/right index arrays) and a cell phase whose GatherCell and
// AdvanceCell kernels — fused by the compiler, the optimisation
// §IV-C.1 credits — apply the inverse mass matrix and advance the
// two-level state. The residual scatter-adds stay temporal (a
// read-modify-write cannot use movntq), which is why the SRF is sized
// to leave them cache room.
func (inst *Instance) Graph() *sdf.Graph {
	p, mesh := inst.P, inst.Mesh
	K := p.K()
	m0 := p.modeZeroFields()

	kfields := func(prefix string) []svm.Field {
		out := make([]svm.Field, K)
		for i := range out {
			out[i] = svm.F(fmt.Sprintf("%s%d", prefix, i), 8)
		}
		return out
	}

	computeFlux := &svm.Kernel{
		Name: "ComputeFlux", OpsPerElem: fluxKernelOps(p),
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			ulr, fg := ins[0], ins[1] // ulr: left fields then right fields
			fpos, fneg := outs[0], outs[1]
			for i := start; i < start+n; i++ {
				v, ln := fg.At(i, 0), fg.At(i, 1)
				for k := 0; k < p.NPDE; k++ {
					fl := flux(ulr.At(i, k), ulr.At(i, p.NPDE+k), v, ln)
					for md := 0; md < p.Dof; md++ {
						w := fl * modeWeight(md)
						fi := p.FieldIndex(k, md)
						fpos.Set(i, fi, -w)
						fneg.Set(i, fi, +w)
					}
				}
			}
			return 0
		},
	}
	gatherCell := &svm.Kernel{
		Name: "GatherCell", OpsPerElem: massSolveOps(p),
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			rs, geom, aux := ins[0], ins[1], ins[2]
			delta := outs[0]
			for i := start; i < start+n; i++ {
				area := geom.At(i, 0)
				for k := 0; k < p.NPDE; k++ {
					for md := 0; md < p.Dof; md++ {
						var acc float64
						for mp := 0; mp < p.Dof; mp++ {
							acc += aux.At(i, md*p.Dof+mp) * rs.At(i, p.FieldIndex(k, mp))
						}
						delta.Set(i, p.FieldIndex(k, md), dt*acc/area)
					}
				}
			}
			return 0
		},
	}
	advanceCell := &svm.Kernel{
		Name: "AdvanceCell", OpsPerElem: int64(advanceOpsPerK * K),
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			us, uold, delta := ins[0], ins[1], ins[2]
			unew, uoldNew, rzero := outs[0], outs[1], outs[2]
			for i := start; i < start+n; i++ {
				for k := 0; k < K; k++ {
					u := us.At(i, k)
					unew.Set(i, k, 0.6*u+0.4*uold.At(i, k)+delta.At(i, k))
					uoldNew.Set(i, k, u)
					rzero.Set(i, k, 0)
				}
			}
			return 0
		},
	}

	g := sdf.New("streamFEM-" + inst.P.Name())

	// Face phase: one multi-index gather pulls both sides' mode-0
	// coefficients per face (the mode-major record layout makes them a
	// single contiguous block; left and right cells sit on nearby
	// lines, so one pass reuses them).
	ulrFields := make([]svm.Field, 2*p.NPDE)
	for k := 0; k < p.NPDE; k++ {
		ulrFields[k] = svm.F(fmt.Sprintf("ul%d", k), 8)
		ulrFields[p.NPDE+k] = svm.F(fmt.Sprintf("ur%d", k), 8)
	}
	ulr := g.Input(svm.NewStream("ULR", mesh.Faces, ulrFields...),
		sdf.Bind(inst.U, fieldNames(inst.U.Layout, m0)...).MultiIndexed(inst.LeftIdx, inst.RightIdx))
	fgS := svm.StreamOf("FG", mesh.Faces, inst.FaceGeom.Layout, inst.FaceGeom.Layout.AllFields())
	fg := g.Input(fgS, sdf.Bind(inst.FaceGeom))
	fluxOut := g.AddKernel(computeFlux, []*sdf.Edge{ulr, fg}, []*svm.Stream{
		svm.NewStream("Fpos", mesh.Faces, kfields("fp")...),
		svm.NewStream("Fneg", mesh.Faces, kfields("fn")...),
	})
	g.Output(fluxOut[0], sdf.Bind(inst.R).Indexed(inst.LeftIdx).Accumulate())
	g.Output(fluxOut[1], sdf.Bind(inst.R).Indexed(inst.RightIdx).Accumulate())

	// Cell phase.
	rs := g.Input(svm.StreamOf("Rs", mesh.Cells, inst.R.Layout, inst.R.Layout.AllFields()), sdf.Bind(inst.R))
	geom := g.Input(svm.StreamOf("Geom", mesh.Cells, inst.CellGeom.Layout, inst.CellGeom.Layout.AllFields()), sdf.Bind(inst.CellGeom))
	aux := g.Input(svm.StreamOf("Mass", mesh.Cells, inst.Aux.Layout, inst.Aux.Layout.AllFields()), sdf.Bind(inst.Aux))
	delta := g.AddKernel(gatherCell, []*sdf.Edge{rs, geom, aux},
		[]*svm.Stream{svm.NewStream("Delta", mesh.Cells, kfields("d")...)})
	us := g.Input(svm.StreamOf("Us", mesh.Cells, inst.U.Layout, inst.U.Layout.AllFields()), sdf.Bind(inst.U))
	uolds := g.Input(svm.StreamOf("Uolds", mesh.Cells, inst.Uold.Layout, inst.Uold.Layout.AllFields()), sdf.Bind(inst.Uold))
	adv := g.AddKernel(advanceCell, []*sdf.Edge{us, uolds, delta[0]}, []*svm.Stream{
		svm.NewStream("Unew", mesh.Cells, kfields("un")...),
		svm.NewStream("Uoldnew", mesh.Cells, kfields("uo")...),
		svm.NewStream("Rzero", mesh.Cells, kfields("rz")...),
	})
	g.Output(adv[0], sdf.Bind(inst.U))
	g.Output(adv[1], sdf.Bind(inst.Uold))
	g.Output(adv[2], sdf.Bind(inst.R))
	return g
}

func fieldNames(l svm.RecordLayout, idx []int) []string {
	out := make([]string, len(idx))
	for i, fi := range idx {
		out[i] = l.Fields[fi].Name
	}
	return out
}

// Spec is the regular-vs-stream comparison of p. Both styles must
// leave the same state, to a relative 1e-9: they sum the residual
// scatter-adds in different orders.
func Spec(p Params) driver.Spec {
	return driver.Spec{
		Name: "streamFEM " + p.Name(), Steps: p.Steps, Tol: 1e-9,
		Options: func(o *compiler.Options) { o.FuseKernels = !p.NoFuse },
		New: func() (driver.Instance, error) {
			inst, err := NewInstance(p)
			if err != nil {
				return driver.Instance{}, err
			}
			return driver.Instance{
				M: inst.M, Regular: inst.RunRegular, Graph: inst.Graph,
				Outputs: func() [][]float64 { return [][]float64{inst.U.Data} },
			}, nil
		},
	}
}

// Run executes the configuration in both styles on separate machines
// and verifies that they agree.
func Run(p Params, ecfg exec.Config) (driver.Result, error) { return driver.Run(Spec(p), ecfg) }
