package spas

import (
	"testing"

	"streamgpp/internal/exec"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Rows: 0, NNZPerRow: 4}).Validate(); err == nil {
		t.Error("Rows=0 accepted")
	}
	if err := (Params{Rows: 10, NNZPerRow: 11}).Validate(); err == nil {
		t.Error("NNZPerRow > Rows accepted")
	}
	if err := (Params{Rows: 100, NNZPerRow: 46}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestMatrixStructure(t *testing.T) {
	inst, err := NewInstance(Params{Rows: 500, NNZPerRow: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NNZ != 5000 {
		t.Fatalf("nnz %d", inst.NNZ)
	}
	// Row pointers consistent, columns in range, RowOf non-decreasing.
	prev := int32(-1)
	for k := 0; k < inst.NNZ; k++ {
		c := inst.ColIdx.Idx[k]
		if c < 0 || int(c) >= 500 {
			t.Fatalf("colidx[%d] = %d", k, c)
		}
		r := inst.RowOf.Idx[k]
		if r < prev {
			t.Fatalf("RowOf decreasing at %d", k)
		}
		prev = r
	}
	for r := 0; r < 500; r++ {
		if inst.RowPtr[r+1]-inst.RowPtr[r] != 10 {
			t.Fatalf("row %d has %d nnz", r, inst.RowPtr[r+1]-inst.RowPtr[r])
		}
	}
	// No duplicate columns within a row.
	for r := 0; r < 500; r++ {
		seen := map[int32]bool{}
		for k := inst.RowPtr[r]; k < inst.RowPtr[r+1]; k++ {
			if seen[inst.ColIdx.Idx[k]] {
				t.Fatalf("row %d repeats column %d", r, inst.ColIdx.Idx[k])
			}
			seen[inst.ColIdx.Idx[k]] = true
		}
	}
}

func TestStreamMatchesRegular(t *testing.T) {
	res, err := Run(Params{Rows: 2000, NNZPerRow: 20, Seed: 2}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Regular.Cycles == 0 || res.Stream.Cycles == 0 {
		t.Fatal("zero cycles")
	}
}

func TestSlowdownSmallMeshRecoveryLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Fig. 11(d): a slowdown for small meshes (the cache serves the
	// regular code's input vector; the stream version's NT gathers
	// cannot use it) recovering as the matrix outgrows the cache.
	small, err := Run(Params{Rows: 2000, NNZPerRow: PaperNNZPerRow, Seed: 3}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(Params{Rows: 48000, NNZPerRow: PaperNNZPerRow, Seed: 3}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rows=2000: %.3f, rows=48000: %.3f", small.Speedup, large.Speedup)
	if small.Speedup >= 1.02 {
		t.Errorf("small mesh speedup %.2f, want <= ~1 (paper: slowdown)", small.Speedup)
	}
	if large.Speedup <= small.Speedup {
		t.Errorf("large mesh (%.2f) should improve over small (%.2f)", large.Speedup, small.Speedup)
	}
}

// TestDenseMatrix builds a matrix with as many non-zeros per row as
// rows: every row holds each column exactly once, and both styles run.
func TestDenseMatrix(t *testing.T) {
	p := Params{Rows: 46, NNZPerRow: 46, Seed: 1}
	inst, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.Rows; r++ {
		seen := make([]bool, p.Rows)
		for k := inst.RowPtr[r]; k < inst.RowPtr[r+1]; k++ {
			c := inst.ColIdx.Idx[k]
			if c < 0 || int(c) >= p.Rows || seen[c] {
				t.Fatalf("row %d: column %d out of [0, %d) or repeated", r, c, p.Rows)
			}
			seen[c] = true
		}
	}
	if _, err := Run(p, exec.Defaults()); err != nil {
		t.Fatal(err)
	}
}
