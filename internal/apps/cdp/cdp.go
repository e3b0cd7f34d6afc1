// Package cdp implements streamCDP (§IV-C.2, Fig. 10(b)): a transport
// advective-equation solver with second-order WENO-style face
// reconstruction, used for large eddy simulations. The paper evaluates
// a square grid (4 neighbours) and a cubic mesh (6 neighbours) at 4096
// and 8192 elements.
//
// The kernel structure follows Fig. 10(b):
//
//	ComputeCell     (cells) — per-cell preprocessing
//	ComputePhiGrad  (cells) — gradients from neighbour phis
//	ComputeFace     (faces) — upwind WENO flux with a data-dependent
//	                          conditional; residuals scatter-add back
//	FindMaxAndUpdate (cells) — max residual, state update
//
// ComputeCell→ComputePhiGrad exhibit the only direct producer-consumer
// locality; everything else crosses phases through arrays with indexed
// access, which the paper calls out as what made streamCDP challenging.
package cdp

import (
	"fmt"
	"math"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// Params selects a grid.
type Params struct {
	// Dims is the grid shape: 2 entries = square grid (4 neighbours),
	// 3 entries = cubic mesh (6 neighbours).
	Dims []int
	// Steps is the number of time steps.
	Steps int
}

// The paper's four configurations (Fig. 11(b)).
var (
	Grid4n4096 = Params{Dims: []int{64, 64}, Steps: 3}
	Grid4n8192 = Params{Dims: []int{128, 64}, Steps: 3}
	Grid6n4096 = Params{Dims: []int{16, 16, 16}, Steps: 3}
	Grid6n8192 = Params{Dims: []int{32, 16, 16}, Steps: 3}
)

// Name returns the Fig. 11(b) label.
func (p Params) Name() string {
	n := 1
	for _, d := range p.Dims {
		n *= d
	}
	return fmt.Sprintf("%dn-%d", 2*len(p.Dims), n)
}

// Validate reports invalid parameters.
func (p Params) Validate() error {
	if len(p.Dims) != 2 && len(p.Dims) != 3 {
		return fmt.Errorf("cdp: Dims must have 2 or 3 entries, got %d", len(p.Dims))
	}
	for _, d := range p.Dims {
		if d < 2 {
			return fmt.Errorf("cdp: dimension %d too small", d)
		}
	}
	if p.Steps <= 0 {
		return fmt.Errorf("cdp: Steps must be positive")
	}
	return nil
}

// Cells returns the element count.
func (p Params) Cells() int {
	n := 1
	for _, d := range p.Dims {
		n *= d
	}
	return n
}

const dt = 5e-3

// Cost model (abstract ops).
const (
	cellOps    = 20 // ComputeCell per cell
	gradOpsDim = 18 // ComputePhiGrad per dimension
	faceOpsUp  = 46 // ComputeFace, upwind branch
	faceOpsDn  = 52 // ComputeFace, downwind branch (extra limiter work)
	updateOps  = 24 // FindMaxAndUpdate per cell
)

// Instance is one materialised problem.
type Instance struct {
	P Params
	M *sim.Machine
	D int // dimensions
	N int // cells
	F int // interior faces

	Phi      *svm.Array // cell scalar (1 field)
	CellData *svm.Array // vol + per-dimension WENO weights (1+2D fields)
	Grad     *svm.Array // phi gradients (D fields)
	Res      *svm.Array // residual (1 field)
	CellVal  *svm.Array // the regular version's ComputeCell intermediate

	FaceGeom *svm.Array        // vel, area, axis (3 fields per face)
	LeftIdx  *svm.IndexArray   // face → left cell
	RightIdx *svm.IndexArray   // face → right cell
	Nbr      []*svm.IndexArray // 2D arrays cell → neighbour (lo/hi per dim)

	// MaxRes is the FindMaxAndUpdate reduction of the last run step.
	MaxRes float64
}

// NewInstance builds the grid.
func NewInstance(p Params) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := sim.MustNew(sim.PentiumD8300())
	d := len(p.Dims)
	n := p.Cells()

	cdFields := make([]svm.Field, 1+2*d)
	cdFields[0] = svm.F("vol", 8)
	for i := 0; i < 2*d; i++ {
		cdFields[1+i] = svm.F(fmt.Sprintf("w%d", i), 8)
	}
	gFields := make([]svm.Field, d)
	for i := range gFields {
		gFields[i] = svm.F(fmt.Sprintf("g%d", i), 8)
	}

	inst := &Instance{
		P: p, M: m, D: d, N: n,
		Phi:      svm.NewArray(m, "phi", svm.Layout("phi", svm.F("v", 8)), n),
		CellData: svm.NewArray(m, "celldata", svm.Layout("cd", cdFields...), n),
		Grad:     svm.NewArray(m, "grad", svm.Layout("grad", gFields...), n),
		Res:      svm.NewArray(m, "res", svm.Layout("res", svm.F("v", 8)), n),
		CellVal:  svm.NewArray(m, "cellval", svm.Layout("cv", svm.F("v", 8)), n),
	}

	// Strides for linearising the grid.
	stride := make([]int, d)
	stride[d-1] = 1
	for i := d - 2; i >= 0; i-- {
		stride[i] = stride[i+1] * p.Dims[i+1]
	}
	coord := func(c, dim int) int { return (c / stride[dim]) % p.Dims[dim] }

	// Neighbour maps (lo/hi per dimension; boundaries map to self).
	inst.Nbr = make([]*svm.IndexArray, 2*d)
	for i := range inst.Nbr {
		inst.Nbr[i] = svm.NewIndexArray(m, fmt.Sprintf("nbr%d", i), n)
	}
	for c := 0; c < n; c++ {
		for dim := 0; dim < d; dim++ {
			lo, hi := c, c
			if coord(c, dim) > 0 {
				lo = c - stride[dim]
			}
			if coord(c, dim) < p.Dims[dim]-1 {
				hi = c + stride[dim]
			}
			inst.Nbr[2*dim].Idx[c] = int32(lo)
			inst.Nbr[2*dim+1].Idx[c] = int32(hi)
		}
	}

	// Interior faces per dimension.
	var left, right []int32
	var vel, axis []float64
	for dim := 0; dim < d; dim++ {
		for c := 0; c < n; c++ {
			if coord(c, dim) == p.Dims[dim]-1 {
				continue
			}
			left = append(left, int32(c))
			right = append(right, int32(c+stride[dim]))
			x := float64(coord(c, dim)) / float64(p.Dims[dim])
			vel = append(vel, math.Sin(2*math.Pi*x+float64(dim))+0.25)
			axis = append(axis, float64(dim))
		}
	}
	inst.F = len(left)
	inst.FaceGeom = svm.NewArray(m, "face", svm.Layout("face", svm.F("vel", 8), svm.F("area", 8), svm.F("axis", 8)), inst.F)
	inst.LeftIdx = svm.NewIndexArray(m, "left", inst.F)
	inst.RightIdx = svm.NewIndexArray(m, "right", inst.F)
	for f := 0; f < inst.F; f++ {
		inst.LeftIdx.Idx[f] = left[f]
		inst.RightIdx.Idx[f] = right[f]
		inst.FaceGeom.Set(f, 0, vel[f])
		inst.FaceGeom.Set(f, 1, 1)
		inst.FaceGeom.Set(f, 2, axis[f])
	}

	// Initial condition: a smooth blob plus per-cell data.
	for c := 0; c < n; c++ {
		r := 0.0
		for dim := 0; dim < d; dim++ {
			x := float64(coord(c, dim))/float64(p.Dims[dim]) - 0.5
			r += x * x
		}
		inst.Phi.Set(c, 0, math.Exp(-20*r))
		inst.CellData.Set(c, 0, 1) // vol
		for i := 0; i < 2*d; i++ {
			inst.CellData.Set(c, 1+i, 0.5+0.1*float64((c+i)%5)/5)
		}
	}
	return inst, nil
}

// Shared per-element maths (identical in both versions).

func computeCellVal(phi, vol float64) float64 {
	return phi * (1 + 0.05*vol) / (1 + 0.02*phi*phi)
}

func computeGrad(cv float64, wLo, wHi, phiLo, phiHi, phi float64) float64 {
	g := 0.5 * (wHi*(phiHi-phi) + wLo*(phi-phiLo))
	return g * (1 + 0.01*cv)
}

// computeFaceFlux is the data-dependent upwind reconstruction: the
// branch (and its cost) depends on the velocity sign.
func computeFaceFlux(v, area, phiL, phiR, gradL, gradR float64) (flux float64, ops int64) {
	beta := (phiR - phiL) * (phiR - phiL)
	w := 1 / (1e-6 + beta)
	if v > 0 {
		phiFace := phiL + 0.5*gradL*w/(1+w)
		return v * phiFace * area, faceOpsUp
	}
	phiFace := phiR - 0.5*gradR*w/(1+w) - 0.01*beta
	return v * phiFace * area, faceOpsDn
}

func updateCell(phi, res, vol float64) (phiNew, absRes float64) {
	return phi - dt*res/vol, math.Abs(res)
}

// RunRegular executes the conventional four-loop formulation.
func (inst *Instance) RunRegular(ecfg exec.Config) exec.Result {
	d, n := inst.D, inst.N

	cellLoop := exec.Loop{
		Name: "ComputeCell", N: n,
		Ops: func(i int) int64 { return cellOps },
		Refs: func(c int, emit func(sim.Addr, int, bool)) {
			emit(inst.Phi.FieldAddr(c, 0), 8, false)
			emit(inst.CellData.FieldAddr(c, 0), 8, false)
			emit(inst.CellVal.FieldAddr(c, 0), 8, true)
		},
		Body: func(c int) {
			inst.CellVal.Set(c, 0, computeCellVal(inst.Phi.At(c, 0), inst.CellData.At(c, 0)))
		},
	}
	gradLoop := exec.Loop{
		Name: "ComputePhiGrad", N: n,
		Ops: func(i int) int64 { return int64(gradOpsDim * d) },
		Refs: func(c int, emit func(sim.Addr, int, bool)) {
			emit(inst.CellVal.FieldAddr(c, 0), 8, false)
			emit(inst.Phi.FieldAddr(c, 0), 8, false)
			emit(inst.CellData.FieldAddr(c, 1), 8*2*d, false)
			for i := 0; i < 2*d; i++ {
				emit(inst.Nbr[i].ElemAddr(c), svm.IndexElemBytes, false)
				emit(inst.Phi.FieldAddr(int(inst.Nbr[i].Idx[c]), 0), 8, false)
			}
			emit(inst.Grad.RecordAddr(c), 8*d, true)
		},
		Body: func(c int) {
			cv := inst.CellVal.At(c, 0)
			phi := inst.Phi.At(c, 0)
			for dim := 0; dim < d; dim++ {
				g := computeGrad(cv,
					inst.CellData.At(c, 1+2*dim), inst.CellData.At(c, 2+2*dim),
					inst.Phi.At(int(inst.Nbr[2*dim].Idx[c]), 0),
					inst.Phi.At(int(inst.Nbr[2*dim+1].Idx[c]), 0), phi)
				inst.Grad.Set(c, dim, g)
			}
		},
	}
	var faceOpsVar int64
	faceLoop := exec.Loop{
		Name: "ComputeFace", N: inst.F,
		Ops: func(f int) int64 { return faceOpsVar },
		Refs: func(f int, emit func(sim.Addr, int, bool)) {
			emit(inst.LeftIdx.ElemAddr(f), svm.IndexElemBytes, false)
			emit(inst.RightIdx.ElemAddr(f), svm.IndexElemBytes, false)
			emit(inst.FaceGeom.RecordAddr(f), 24, false)
			l, r := int(inst.LeftIdx.Idx[f]), int(inst.RightIdx.Idx[f])
			emit(inst.Phi.FieldAddr(l, 0), 8, false)
			emit(inst.Phi.FieldAddr(r, 0), 8, false)
			emit(inst.Grad.RecordAddr(l), 8*d, false)
			emit(inst.Grad.RecordAddr(r), 8*d, false)
			emit(inst.Res.FieldAddr(l, 0), 8, false)
			emit(inst.Res.FieldAddr(l, 0), 8, true)
			emit(inst.Res.FieldAddr(r, 0), 8, false)
			emit(inst.Res.FieldAddr(r, 0), 8, true)
		},
		Body: func(f int) {
			l, r := int(inst.LeftIdx.Idx[f]), int(inst.RightIdx.Idx[f])
			axis := int(inst.FaceGeom.At(f, 2))
			flux, ops := computeFaceFlux(inst.FaceGeom.At(f, 0), inst.FaceGeom.At(f, 1),
				inst.Phi.At(l, 0), inst.Phi.At(r, 0),
				inst.Grad.At(l, axis), inst.Grad.At(r, axis))
			faceOpsVar = ops
			inst.Res.Add(l, 0, -flux)
			inst.Res.Add(r, 0, +flux)
		},
	}
	updateLoop := exec.Loop{
		Name: "FindMaxAndUpdate", N: n,
		Ops: func(i int) int64 { return updateOps },
		Refs: func(c int, emit func(sim.Addr, int, bool)) {
			emit(inst.Res.FieldAddr(c, 0), 8, false)
			emit(inst.Phi.FieldAddr(c, 0), 8, false)
			emit(inst.CellData.FieldAddr(c, 0), 8, false)
			emit(inst.Phi.FieldAddr(c, 0), 8, true)
			emit(inst.Res.FieldAddr(c, 0), 8, true)
		},
		Body: func(c int) {
			phiNew, ar := updateCell(inst.Phi.At(c, 0), inst.Res.At(c, 0), inst.CellData.At(c, 0))
			if ar > inst.MaxRes {
				inst.MaxRes = ar
			}
			inst.Phi.Set(c, 0, phiNew)
			inst.Res.Set(c, 0, 0)
		},
	}

	total, _ := driver.Steps(inst.P.Steps, func() (exec.Result, error) {
		inst.MaxRes = 0
		return exec.RunRegular(inst.M, ecfg, cellLoop, gradLoop, faceLoop, updateLoop), nil
	})
	return total
}

// Graph builds the streamCDP SDF graph of Fig. 10(b).
func (inst *Instance) Graph() *sdf.Graph {
	d, n := inst.D, inst.N

	computeCell := &svm.Kernel{
		Name: "ComputeCell", OpsPerElem: cellOps,
		Fn: func(ins, outs []*svm.Stream, start, cnt int) int64 {
			phis, cds := ins[0], ins[1]
			cvs := outs[0]
			for i := start; i < start+cnt; i++ {
				cvs.Set(i, 0, computeCellVal(phis.At(i, 0), cds.At(i, 0)))
			}
			return 0
		},
	}
	computePhiGrad := &svm.Kernel{
		Name: "ComputePhiGrad", OpsPerElem: int64(gradOpsDim * d),
		Fn: func(ins, outs []*svm.Stream, start, cnt int) int64 {
			cvs, phis, wts, phiN := ins[0], ins[1], ins[2], ins[3]
			grads := outs[0]
			for i := start; i < start+cnt; i++ {
				cv, phi := cvs.At(i, 0), phis.At(i, 0)
				for dim := 0; dim < d; dim++ {
					g := computeGrad(cv, wts.At(i, 2*dim), wts.At(i, 2*dim+1),
						phiN.At(i, 2*dim), phiN.At(i, 2*dim+1), phi)
					grads.Set(i, dim, g)
				}
			}
			return 0
		},
	}
	computeFace := &svm.Kernel{
		Name: "ComputeFace", OpsPerElem: faceOpsUp,
		Fn: func(ins, outs []*svm.Stream, start, cnt int) int64 {
			phiLR, gradLR, fg := ins[0], ins[1], ins[2]
			fpos, fneg := outs[0], outs[1]
			var total int64
			for i := start; i < start+cnt; i++ {
				axis := int(fg.At(i, 2))
				flux, ops := computeFaceFlux(fg.At(i, 0), fg.At(i, 1),
					phiLR.At(i, 0), phiLR.At(i, 1),
					gradLR.At(i, axis), gradLR.At(i, d+axis))
				total += ops
				fpos.Set(i, 0, -flux)
				fneg.Set(i, 0, +flux)
			}
			return total
		},
	}
	findMaxAndUpdate := &svm.Kernel{
		Name: "FindMaxAndUpdate", OpsPerElem: updateOps,
		Fn: func(ins, outs []*svm.Stream, start, cnt int) int64 {
			ress, phis, vols := ins[0], ins[1], ins[2]
			phiNew, rzero := outs[0], outs[1]
			for i := start; i < start+cnt; i++ {
				pn, ar := updateCell(phis.At(i, 0), ress.At(i, 0), vols.At(i, 0))
				if ar > inst.MaxRes {
					inst.MaxRes = ar
				}
				phiNew.Set(i, 0, pn)
				rzero.Set(i, 0, 0)
			}
			return 0
		},
	}

	g := sdf.New("streamCDP-" + inst.P.Name())

	// Phase 1 (cells): ComputeCell feeds ComputePhiGrad directly — the
	// producer-consumer locality the paper found; the gradients go back
	// to memory because the face phase gathers them by index.
	phis := g.Input(svm.StreamOf("phis", n, inst.Phi.Layout, inst.Phi.Layout.AllFields()), sdf.Bind(inst.Phi))
	vols := g.Input(svm.StreamOf("vols", n, inst.CellData.Layout, inst.CellData.Layout.Select("vol")), sdf.Bind(inst.CellData, "vol"))
	cv := g.AddKernel(computeCell, []*sdf.Edge{phis, vols},
		[]*svm.Stream{svm.NewStream("cvs", n, svm.F("v", 8))})

	wnames := make([]string, 2*d)
	for i := range wnames {
		wnames[i] = fmt.Sprintf("w%d", i)
	}
	wts := g.Input(svm.StreamOf("wts", n, inst.CellData.Layout, inst.CellData.Layout.Select(wnames...)), sdf.Bind(inst.CellData, wnames...))
	phiNFields := make([]svm.Field, 2*d)
	for i := range phiNFields {
		phiNFields[i] = svm.F(fmt.Sprintf("pn%d", i), 8)
	}
	phiN := g.Input(svm.NewStream("phiN", n, phiNFields...), sdf.Bind(inst.Phi).MultiIndexed(inst.Nbr...))
	gFields := make([]svm.Field, d)
	for i := range gFields {
		gFields[i] = svm.F(fmt.Sprintf("g%d", i), 8)
	}
	grad := g.AddKernel(computePhiGrad, []*sdf.Edge{cv[0], phis, wts, phiN},
		[]*svm.Stream{svm.NewStream("grads", n, gFields...)})
	g.Output(grad[0], sdf.Bind(inst.Grad))

	// Phase 2 (faces): multi-index gathers of phi and gradients for
	// both sides, upwind flux, residual scatter-add.
	phiLR := g.Input(svm.NewStream("phiLR", inst.F, svm.F("pl", 8), svm.F("pr", 8)),
		sdf.Bind(inst.Phi).MultiIndexed(inst.LeftIdx, inst.RightIdx))
	gradLRFields := make([]svm.Field, 2*d)
	for i := range gradLRFields {
		gradLRFields[i] = svm.F(fmt.Sprintf("glr%d", i), 8)
	}
	gradLR := g.Input(svm.NewStream("gradLR", inst.F, gradLRFields...),
		sdf.Bind(inst.Grad).MultiIndexed(inst.LeftIdx, inst.RightIdx))
	fg := g.Input(svm.StreamOf("fg", inst.F, inst.FaceGeom.Layout, inst.FaceGeom.Layout.AllFields()), sdf.Bind(inst.FaceGeom))
	flux := g.AddKernel(computeFace, []*sdf.Edge{phiLR, gradLR, fg}, []*svm.Stream{
		svm.NewStream("Fpos", inst.F, svm.F("v", 8)),
		svm.NewStream("Fneg", inst.F, svm.F("v", 8)),
	})
	g.Output(flux[0], sdf.Bind(inst.Res).Indexed(inst.LeftIdx).Accumulate())
	g.Output(flux[1], sdf.Bind(inst.Res).Indexed(inst.RightIdx).Accumulate())

	// Phase 3 (cells): FindMaxAndUpdate.
	ress := g.Input(svm.StreamOf("ress", n, inst.Res.Layout, inst.Res.Layout.AllFields()), sdf.Bind(inst.Res))
	phis2 := g.Input(svm.StreamOf("phis2", n, inst.Phi.Layout, inst.Phi.Layout.AllFields()), sdf.Bind(inst.Phi))
	vols2 := g.Input(svm.StreamOf("vols2", n, inst.CellData.Layout, inst.CellData.Layout.Select("vol")), sdf.Bind(inst.CellData, "vol"))
	upd := g.AddKernel(findMaxAndUpdate, []*sdf.Edge{ress, phis2, vols2}, []*svm.Stream{
		svm.NewStream("phiNew", n, svm.F("v", 8)),
		svm.NewStream("rzero", n, svm.F("v", 8)),
	})
	g.Output(upd[0], sdf.Bind(inst.Phi))
	g.Output(upd[1], sdf.Bind(inst.Res))
	return g
}

// Spec is the regular-vs-stream comparison of p. Both styles must
// leave the same field and max residual, to a relative 1e-9: they sum
// the residual scatter-adds in different orders.
func Spec(p Params) driver.Spec {
	return driver.Spec{
		Name: "streamCDP " + p.Name(), Steps: p.Steps, Tol: 1e-9,
		New: func() (driver.Instance, error) {
			inst, err := NewInstance(p)
			if err != nil {
				return driver.Instance{}, err
			}
			return driver.Instance{
				M: inst.M, Regular: inst.RunRegular, Graph: inst.Graph,
				// MaxRes is each step's own reduction.
				Step:    func() { inst.MaxRes = 0 },
				Outputs: func() [][]float64 { return [][]float64{inst.Phi.Data, {inst.MaxRes}} },
			}, nil
		},
	}
}

// Run executes both versions on separate machines and verifies that
// they agree.
func Run(p Params, ecfg exec.Config) (driver.Result, error) { return driver.Run(Spec(p), ecfg) }
