package bench

import (
	"bytes"
	"strings"
	"testing"

	"streamgpp/internal/fault"
)

// Per-row fault injection must be deterministic at any Parallelism:
// every row derives its own injector seed from (base seed, row key), so
// neither goroutine scheduling nor run order can change which draws a
// row sees. This is the property that lets streambench -fault keep the
// parallel runner (PR 3 forced -parallel 1 with one global injector).
func TestFaultReportDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment twice")
	}
	e, ok := ByID("fig9")
	if !ok {
		t.Fatal("fig9 missing")
	}

	run := func(par int) (string, string) {
		fcfg, err := fault.ParseSpec("kernel_fault:0.02")
		if err != nil {
			t.Fatal(err)
		}
		fcfg.Seed = 7
		o := Options{Quick: true, Parallelism: par, Faults: NewFaults(fcfg)}
		var buf bytes.Buffer
		if err := e.Run(&buf, o); err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		return buf.String(), o.Faults.Report()
	}

	outSeq, repSeq := run(1)
	outPar, repPar := run(8)
	if outSeq != outPar {
		t.Errorf("experiment output diverges across parallelism:\nseq:\n%s\npar:\n%s", outSeq, outPar)
	}
	if repSeq != repPar {
		t.Errorf("fault report diverges across parallelism:\nseq:\n%s\npar:\n%s", repSeq, repPar)
	}
	if !strings.Contains(repSeq, "fig9/comp=") {
		t.Errorf("fault report missing per-row keys:\n%s", repSeq)
	}
	if !strings.Contains(repSeq, "base seed 7") {
		t.Errorf("fault report missing base seed:\n%s", repSeq)
	}
}

// Different rows must see different derived schedules (one global
// stream would give every row the same draws only by accident, but
// identical per-row seeds would be a wiring bug).
func TestRowFaultSeedsDiffer(t *testing.T) {
	fcfg, err := fault.ParseSpec("kernel_fault:0.5")
	if err != nil {
		t.Fatal(err)
	}
	fcfg.Seed = 1
	f := NewFaults(fcfg)
	a := f.row("fig9/comp=1")
	b := f.row("fig9/comp=4")
	if a == nil || b == nil {
		t.Fatal("armed row returned nil")
	}
	if a == b {
		t.Fatal("distinct rows share an injector")
	}
	// Same key returns the same injector (rows must accumulate draws in
	// one place for the report).
	if f.row("fig9/comp=1") != a {
		t.Fatal("repeated key did not return the cached injector")
	}
	if cfg := (Options{Faults: f}).rowExec("fig9/comp=1"); cfg.Fault != a {
		t.Fatal("armed rowExec does not carry the row's injector")
	}
	// Disarmed: nil injector, defaults config.
	var off *Faults
	if off.row("fig9/comp=1") != nil {
		t.Fatal("disarmed row returned an injector")
	}
	if cfg := (Options{}).rowExec("fig9/comp=1"); cfg.Fault != nil {
		t.Fatal("disarmed rowExec carries an injector")
	}
}
