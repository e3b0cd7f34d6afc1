package bench

import (
	"fmt"
	"io"

	"streamgpp/internal/apps/micro"
	"streamgpp/internal/exec"
)

// Quickstart runs the documentation's worked example (the QUICKSTART
// micro-benchmark): small, fast and representative, it is the workload
// the README's -ledger/-compare walkthrough, the regression-gate smoke
// in scripts/check.sh and the streamtrace golden test all use. It lives
// outside Experiments() so `-exp all` keeps reproducing exactly the
// paper's nine figures, byte-for-byte.
func Quickstart(w io.Writer, o Options) error {
	n := 300000
	if o.Quick {
		n = 50000
	}
	t := Table{
		Title:  "Quickstart: out[i] = comp(2.5*a[i] + b[i])",
		Header: []string{"style", "cycles", "speedup", "overlap"},
	}
	tr := &exec.Trace{}
	ecfg := o.rowExec("quickstart")
	ecfg.Trace = tr
	// No explicit Observer: the machine inherits sim.SetDefaultObserver,
	// so measured mode (-ledger/-compare) sees this experiment's
	// metrics — ledger rows must carry sim.*, coverage.* and bw.* for
	// the regression gate's metric gates to have anything to compare.
	res, err := micro.RunQuickstart(micro.Params{N: n, Comp: 1, Seed: 1}, ecfg)
	if err != nil {
		return err
	}
	t.AddRow("regular", fmt.Sprintf("%d", res.Regular.Cycles), "1.00", "-")
	t.AddRow("stream", fmt.Sprintf("%d", res.Stream.Cycles),
		fmt.Sprintf("%.2f", res.Speedup), fmt.Sprintf("%.2f", tr.OverlapEfficiency()))
	t.Note("the worked example from the README; see streamtrace -app quickstart for its timeline.")
	t.Render(w)
	return nil
}
