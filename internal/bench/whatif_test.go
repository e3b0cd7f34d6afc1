package bench

import (
	"bytes"
	"strings"
	"testing"

	"streamgpp/internal/exec"
)

func TestParseWhatIf(t *testing.T) {
	specs, err := ParseWhatIf("ident, dram=0.5,kernel=1.25,strip=0.5,1ctx")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name())
	}
	if got := strings.Join(names, ","); got != "ident,dram=0.5,kernel=1.25,strip=0.5,1ctx" {
		t.Fatalf("parsed %q", got)
	}
	for _, bad := range []string{"", "bogus", "dram", "dram=0", "dram=-1", "kernel=x", "strip=2"} {
		if _, err := ParseWhatIf(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// The cross-check itself: the identity scenario must reproduce the
// deterministic baseline exactly on both sides, and the a-priori
// kernel-speedup prediction must agree with the simulator re-run
// within the gate tolerance.
func TestWhatIfIdentityExactAndKernelAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	specs, err := ParseWhatIf("ident,kernel=1.25")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := RunWhatIf(&buf, true, specs, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("gated scenarios failed:\n%s", buf.String())
	}
	ident := res.Rows[0]
	if ident.AnalyticalDelta != 0 || ident.EmpiricalDelta != 0 || ident.Analytical != ident.Baseline {
		t.Fatalf("identity not exact: %+v", ident)
	}
	kernel := res.Rows[1]
	if kernel.Derived {
		t.Fatal("kernel scenario must be an a-priori prediction, not derived")
	}
	if kernel.AnalyticalDelta >= 0 || kernel.EmpiricalDelta >= 0 {
		t.Fatalf("kernel speedup predicted no gain: %+v", kernel)
	}
	if !kernel.Pass {
		t.Fatalf("kernel scenario disagrees beyond %.2f: %+v", res.Tolerance, kernel)
	}
	if !strings.Contains(buf.String(), "What-if") || !strings.Contains(buf.String(), "+0.00%") {
		t.Fatalf("verdict table missing identity row:\n%s", buf.String())
	}
}
