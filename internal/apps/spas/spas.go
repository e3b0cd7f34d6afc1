// Package spas implements streamSPAS (§IV-C.4, Fig. 10(d)): sparse
// matrix-vector multiplication over compressed sparse row storage,
// with the ratio of non-zeros to rows held at the paper's ≈46.
//
// The stream version gathers one copy of the input vector entry for
// every non-zero ("several elements are copied multiple times ... to
// keep the input vector data contiguous in the SRF"), multiplies it
// against the sequentially-loaded values, and accumulates the products
// into the result. Because the gathers are non-temporal, the stream
// version cannot exploit a cache-resident input vector — which is why
// the paper measures a slowdown on small meshes and a recovery as the
// matrix outgrows the cache.
package spas

import (
	"fmt"
	"math"
	"math/rand"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// Params selects a matrix.
type Params struct {
	// Rows is the matrix dimension (square).
	Rows int
	// NNZPerRow is the non-zeros per row; the paper holds this at ~46.
	NNZPerRow int
	// Seed drives the sparsity pattern.
	Seed int64
}

// PaperNNZPerRow is the paper's constant non-zeros-to-rows ratio.
const PaperNNZPerRow = 46

// Validate reports invalid parameters.
func (p Params) Validate() error {
	if p.Rows <= 0 {
		return fmt.Errorf("spas: Rows must be positive, got %d", p.Rows)
	}
	if p.NNZPerRow <= 0 || p.NNZPerRow > p.Rows {
		return fmt.Errorf("spas: NNZPerRow %d out of range (1..%d)", p.NNZPerRow, p.Rows)
	}
	return nil
}

// Cost model: a multiply-accumulate per non-zero.
const macOps = 4

// Instance is one materialised SpMV problem.
type Instance struct {
	P   Params
	M   *sim.Machine
	NNZ int

	Vals   *svm.Array      // non-zero values, sequential
	X      *svm.Array      // input vector
	Y      *svm.Array      // result vector
	ColIdx *svm.IndexArray // column of each non-zero
	RowOf  *svm.IndexArray // row of each non-zero (non-decreasing)
	RowPtr []int32         // CSR row pointers (regular version)
}

// NewInstance builds a matrix with a 3D-FEM-like sparsity pattern:
// most entries cluster in a band around the diagonal, a fraction reach
// far (the paper's matrices "come from 3D FEM discretization").
func NewInstance(p Params) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := sim.MustNew(sim.PentiumD8300())
	nnz := p.Rows * p.NNZPerRow
	inst := &Instance{
		P: p, M: m, NNZ: nnz,
		Vals:   svm.NewArray(m, "vals", svm.Layout("val", svm.F("v", 8)), nnz),
		X:      svm.NewArray(m, "x", svm.Layout("x", svm.F("v", 8)), p.Rows),
		Y:      svm.NewArray(m, "y", svm.Layout("y", svm.F("v", 8)), p.Rows),
		ColIdx: svm.NewIndexArray(m, "colidx", nnz),
		RowOf:  svm.NewIndexArray(m, "rowof", nnz),
		RowPtr: make([]int32, p.Rows+1),
	}
	rng := rand.New(rand.NewSource(p.Seed))
	// A 3D FEM discretisation couples nodes within a surface-sized
	// bandwidth: ~n^(2/3) for n unknowns. Relative to the matrix, the
	// band narrows as the mesh grows — the paper's "the mesh gets
	// sparser" observation. The band stops at Rows-1, so the reflection
	// below keeps every column in [0, Rows); the cap narrows only a
	// dense matrix (NNZPerRow == Rows).
	band := min(max(int(math.Pow(float64(p.Rows), 2.0/3)), p.NNZPerRow), p.Rows-1)
	// drawnBy[c] is one more than the last row that drew column c, so
	// the row-local duplicate check is one load and draws the same
	// random sequence as a scan of the row's columns.
	drawnBy := make([]int32, p.Rows)
	k := 0
	for r := 0; r < p.Rows; r++ {
		inst.RowPtr[r] = int32(k)
		for j := 0; j < p.NNZPerRow; j++ {
			var c int32
		draw:
			for {
				if rng.Float64() < 0.98 {
					c = int32(r + rng.Intn(2*band+1) - band)
				} else {
					c = int32(rng.Intn(p.Rows))
				}
				if c < 0 {
					c = -c
				}
				if int(c) >= p.Rows {
					c = int32(2*p.Rows-2) - c
				}
				if drawnBy[c] == int32(r)+1 {
					continue draw
				}
				break
			}
			drawnBy[c] = int32(r) + 1
			inst.ColIdx.Idx[k] = c
			inst.RowOf.Idx[k] = int32(r)
			inst.Vals.Set(k, 0, rng.Float64()*2-1)
			k++
		}
	}
	inst.RowPtr[p.Rows] = int32(k)
	for i := 0; i < p.Rows; i++ {
		inst.X.Set(i, 0, rng.Float64()*2-1)
	}
	return inst, nil
}

// RunRegular executes the classic CSR loop: for each row, accumulate
// vals[k]*x[colidx[k]] in a register and store y[r].
func (inst *Instance) RunRegular(ecfg exec.Config) exec.Result {
	p := inst.P
	loop := exec.Loop{
		Name: "spmv", N: p.Rows,
		Ops: func(r int) int64 {
			return int64(inst.RowPtr[r+1]-inst.RowPtr[r]) * macOps
		},
		Refs: func(r int, emit func(sim.Addr, int, bool)) {
			for k := inst.RowPtr[r]; k < inst.RowPtr[r+1]; k++ {
				emit(inst.ColIdx.ElemAddr(int(k)), svm.IndexElemBytes, false)
				emit(inst.Vals.FieldAddr(int(k), 0), 8, false)
				emit(inst.X.FieldAddr(int(inst.ColIdx.Idx[k]), 0), 8, false)
			}
			emit(inst.Y.FieldAddr(r, 0), 8, true)
		},
		Body: func(r int) {
			var acc float64
			for k := inst.RowPtr[r]; k < inst.RowPtr[r+1]; k++ {
				acc += inst.Vals.At(int(k), 0) * inst.X.At(int(inst.ColIdx.Idx[k]), 0)
			}
			inst.Y.Set(r, 0, acc)
		},
	}
	return exec.RunRegular(inst.M, ecfg, loop)
}

// Graph builds the stream program: gather x[colidx[k]] per non-zero
// (the duplicating copy of Fig. 10(d)), stream the values sequentially,
// multiply in the SpMatVec kernel, and accumulate the products into y
// (zero on a fresh instance) through the non-decreasing row index.
func (inst *Instance) Graph() *sdf.Graph {
	spMatVec := &svm.Kernel{
		Name: "SpMatVec", OpsPerElem: macOps,
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			xv, vals := ins[0], ins[1]
			prod := outs[0]
			for i := start; i < start+n; i++ {
				prod.Set(i, 0, xv.At(i, 0)*vals.At(i, 0))
			}
			return 0
		},
	}
	g := sdf.New("streamSPAS")
	xv := g.Input(svm.StreamOf("xv", inst.NNZ, inst.X.Layout, inst.X.Layout.AllFields()),
		sdf.Bind(inst.X).Indexed(inst.ColIdx))
	vals := g.Input(svm.StreamOf("vals", inst.NNZ, inst.Vals.Layout, inst.Vals.Layout.AllFields()),
		sdf.Bind(inst.Vals))
	prod := g.AddKernel(spMatVec, []*sdf.Edge{xv, vals},
		[]*svm.Stream{svm.NewStream("prod", inst.NNZ, svm.F("p", 8))})
	g.Output(prod[0], sdf.Bind(inst.Y).Indexed(inst.RowOf).Accumulate())
	return g
}

// Spec is the regular-vs-stream comparison of p. The stream version
// sums each row's products in scatter-add order, so the results agree
// to a relative 1e-9.
func Spec(p Params) driver.Spec {
	return driver.Spec{
		Name: "streamSPAS", Tol: 1e-9,
		New: func() (driver.Instance, error) {
			inst, err := NewInstance(p)
			if err != nil {
				return driver.Instance{}, err
			}
			return driver.Instance{
				M: inst.M, Regular: inst.RunRegular, Graph: inst.Graph,
				Outputs: func() [][]float64 { return [][]float64{inst.Y.Data} },
			}, nil
		},
	}
}

// Run executes both versions on separate machines and verifies that
// they agree.
func Run(p Params, ecfg exec.Config) (driver.Result, error) { return driver.Run(Spec(p), ecfg) }
