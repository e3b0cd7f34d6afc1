package micro

import (
	"testing"

	"streamgpp/internal/exec"
)

// Small-N smoke tests verify functional equivalence cheaply; shape
// tests use cache-exceeding arrays at a couple of COMP points.

func TestParamsValidate(t *testing.T) {
	if err := (Params{N: 0, Comp: 1}).Validate(); err == nil {
		t.Error("N=0 accepted")
	}
	if err := (Params{N: 10, Comp: -1}).Validate(); err == nil {
		t.Error("negative Comp accepted")
	}
	if err := (Params{N: 10}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestAllMicrosAgreeFunctionally runs every micro-benchmark across the
// Fig. 9 knee: each run checks that the regular and stream outputs
// agree, and both styles must simulate a non-zero cycle count.
func TestAllMicrosAgreeFunctionally(t *testing.T) {
	runners := map[string]func(Params, exec.Config) (Result, error){
		"QUICKSTART":    RunQuickstart,
		"LD-ST-COMP":    RunLDST,
		"GAT-SCAT-COMP": RunGATSCAT,
		"PROD-CON":      RunPRODCON,
	}
	for name, run := range runners {
		for _, comp := range []int{0, 1, 4} {
			res, err := run(Params{N: 20000, Comp: comp, Seed: 42}, exec.Defaults())
			if err != nil {
				t.Fatalf("%s comp=%d: %v", name, comp, err)
			}
			if res.Regular.Cycles == 0 || res.Stream.Cycles == 0 {
				t.Fatalf("%s comp=%d: zero cycles", name, comp)
			}
		}
	}
}

func TestLDSTSpeedupHighWhenMemoryBound(t *testing.T) {
	// Fig. 9: LD-ST-COMP shows the largest gains at low COMP (bulk
	// sequential transfers beat intermixed loads), up to ~1.9x.
	res, err := RunLDST(Params{N: 300000, Comp: 1, Seed: 1}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LD-ST-COMP comp=1 speedup %.2f", res.Speedup)
	if res.Speedup < 1.2 {
		t.Errorf("speedup %.2f, want >= 1.2 at COMP=1", res.Speedup)
	}
	if res.Speedup > 2.3 {
		t.Errorf("speedup %.2f suspiciously high (paper max 1.92)", res.Speedup)
	}
}

func TestLDSTSpeedupDecaysWithComp(t *testing.T) {
	lo, err := RunLDST(Params{N: 200000, Comp: 1, Seed: 1}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunLDST(Params{N: 200000, Comp: 16, Seed: 1}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LD-ST-COMP comp=1 %.2f, comp=16 %.2f", lo.Speedup, hi.Speedup)
	if hi.Speedup >= lo.Speedup {
		t.Errorf("speedup should decay with COMP: %.2f -> %.2f", lo.Speedup, hi.Speedup)
	}
	if hi.Speedup < 0.85 || hi.Speedup > 1.3 {
		t.Errorf("compute-bound speedup %.2f, want ~1.0", hi.Speedup)
	}
}

func TestGATSCATSpeedupPeaksMidComp(t *testing.T) {
	// Fig. 9: GAT-SCAT-COMP improves as COMP grows (overlap pays off)
	// and converges back toward 1 at very large COMP.
	lo, err := RunGATSCAT(Params{N: 150000, Comp: 1, Seed: 2}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := RunGATSCAT(Params{N: 150000, Comp: 4, Seed: 2}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunGATSCAT(Params{N: 150000, Comp: 16, Seed: 2}, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("GAT-SCAT comp=1 %.2f, comp=4 %.2f, comp=16 %.2f", lo.Speedup, mid.Speedup, hi.Speedup)
	if mid.Speedup < lo.Speedup-0.05 {
		t.Errorf("GAT-SCAT speedup should not fall from COMP=1 to COMP=4: %.2f -> %.2f", lo.Speedup, mid.Speedup)
	}
	if hi.Speedup >= mid.Speedup {
		t.Errorf("GAT-SCAT speedup should decay at large COMP: %.2f -> %.2f", mid.Speedup, hi.Speedup)
	}
	// Worst case in the paper is a 4% slowdown.
	if lo.Speedup < 0.80 {
		t.Errorf("GAT-SCAT comp=1 speedup %.2f, paper's worst case is ~0.96", lo.Speedup)
	}
}

func TestPRODCONBeatsGATSCAT(t *testing.T) {
	// Fig. 9: PROD-CON exceeds GAT-SCAT-COMP thanks to the memory
	// bandwidth saved by producer-consumer locality.
	p := Params{N: 150000, Comp: 4, Seed: 3}
	gs, err := RunGATSCAT(p, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := RunPRODCON(p, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("GAT-SCAT %.2f vs PROD-CON %.2f", gs.Speedup, pc.Speedup)
	if pc.Speedup <= gs.Speedup {
		t.Errorf("PROD-CON (%.2f) should beat GAT-SCAT (%.2f)", pc.Speedup, gs.Speedup)
	}
}

func TestMicroDeterminism(t *testing.T) {
	p := Params{N: 30000, Comp: 2, Seed: 7}
	r1, err := RunLDST(p, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunLDST(p, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stream.Cycles != r2.Stream.Cycles || r1.Regular.Cycles != r2.Regular.Cycles {
		t.Error("micro-benchmark runs are nondeterministic")
	}
}
