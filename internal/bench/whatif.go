package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"streamgpp/internal/apps/micro"
	"streamgpp/internal/critpath"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// What-if analysis: each scenario is answered twice over the
// quickstart workload — analytically, by replaying the baseline run's
// frozen task DAG with rescaled durations (critpath.Predict), and
// empirically, by re-running the simulator with the corresponding knob
// actually changed — and the two deltas are cross-checked. Agreement
// within the regression gate's relative threshold means the frozen-DAG
// model explains the knob's effect; disagreement flags contention or
// scheduling effects the analytical model deliberately ignores.

// WhatIfSpec is one parsed scenario.
type WhatIfSpec struct {
	// Kind is one of "ident", "dram", "kernel", "strip", "1ctx".
	Kind string
	// Factor is the knob multiplier (dram, kernel, strip only):
	// dram=0.5 halves DRAM latency, kernel=1.25 raises kernel IPC 25%,
	// strip=0.5 halves the strip size.
	Factor float64
}

// Name renders the spec in the grammar it was parsed from.
func (s WhatIfSpec) Name() string {
	switch s.Kind {
	case "ident", "1ctx":
		return s.Kind
	default:
		return fmt.Sprintf("%s=%g", s.Kind, s.Factor)
	}
}

// ParseWhatIf parses a comma-separated scenario list:
// "ident,dram=0.5,kernel=1.25,strip=0.5,1ctx".
func ParseWhatIf(spec string) ([]WhatIfSpec, error) {
	var out []WhatIfSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		switch {
		case part == "ident" || part == "1ctx":
			out = append(out, WhatIfSpec{Kind: part})
		default:
			kv := strings.SplitN(part, "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("whatif: bad scenario %q (want ident, 1ctx, or dram|kernel|strip=FACTOR)", part)
			}
			k := kv[0]
			if k != "dram" && k != "kernel" && k != "strip" {
				return nil, fmt.Errorf("whatif: unknown knob %q (want dram, kernel or strip)", k)
			}
			f, err := strconv.ParseFloat(kv[1], 64)
			if err != nil || f <= 0 {
				return nil, fmt.Errorf("whatif: bad factor in %q (want a positive number)", part)
			}
			if k == "strip" && f > 1 {
				return nil, fmt.Errorf("whatif: strip factor %g > 1 can exceed the SRF budget; use a factor in (0, 1]", f)
			}
			out = append(out, WhatIfSpec{Kind: k, Factor: f})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("whatif: empty scenario list")
	}
	return out, nil
}

// WhatIfRow is one scenario's verdict.
type WhatIfRow struct {
	Scenario        string
	Baseline        uint64  // recorded baseline cycles
	Analytical      uint64  // frozen-DAG predicted cycles
	AnalyticalDelta float64 // (Analytical-Baseline)/Baseline
	Empirical       uint64  // re-run measured cycles
	EmpiricalDelta  float64
	// Diff is |AnalyticalDelta - EmpiricalDelta|, the model error in
	// fractions of the baseline.
	Diff float64
	// Derived scenarios feed the empirical run's per-kind busy totals
	// back into the analytical scales (the knob's per-task effect is
	// not known a priori); their cross-check validates the DAG
	// propagation, not an independent prediction.
	Derived bool
	// Gated rows must agree within Tolerance; strip rescaling changes
	// the task count, which a frozen DAG cannot represent, so it is
	// reported ungated.
	Gated bool
	Pass  bool
}

// WhatIfResult is the full cross-checked analysis.
type WhatIfResult struct {
	Rows      []WhatIfRow
	Tolerance float64
	// Failed counts gated rows whose deltas disagree.
	Failed int
}

// WhatIfTolerance is the agreement threshold between analytical and
// empirical deltas: the regression gate's minimum relative resolution
// (differences below it are within run-to-run noise for wall-clock and
// within model slack here).
func WhatIfTolerance() float64 { return obs.DefaultGateOptions().MinRelative }

// whatIfParams is the baseline quickstart workload (the README's
// worked example, also used by the check.sh smoke).
func whatIfParams(quick bool) micro.Params {
	n := 300000
	if quick {
		n = 50000
	}
	return micro.Params{N: n, Comp: 1, Seed: 1, Observer: obs.NewRegistry()}
}

// runQuickstartStream runs the quickstart workload once with the given
// parameter mutation and returns the stream-side result. ecfg is used
// as a template (its Trace is overridden per run).
func runQuickstartStream(p micro.Params, tr *exec.Trace, ecfg exec.Config) (exec.Result, error) {
	ecfg.Trace = tr
	res, err := micro.RunQuickstart(p, ecfg)
	if err != nil {
		return exec.Result{}, err
	}
	return res.Stream, nil
}

// RunWhatIf executes the cross-checked what-if analysis for the given
// scenarios over the quickstart workload and renders the verdict
// table. ecfg is the executor-configuration template every run starts
// from — streamd uses it to impose per-job deadlines (Config.Ctx) —
// with its Trace field managed per run.
func RunWhatIf(w io.Writer, quick bool, specs []WhatIfSpec, ecfg exec.Config) (*WhatIfResult, error) {
	base := whatIfParams(quick)
	tr := &exec.Trace{}
	baseRes, err := runQuickstartStream(base, tr, ecfg)
	if err != nil {
		return nil, err
	}
	g, err := critpath.Build(tr, baseRes.Cycles)
	if err != nil {
		return nil, err
	}

	out := &WhatIfResult{Tolerance: WhatIfTolerance()}
	for _, s := range specs {
		row, err := runScenario(g, base, baseRes, s, out.Tolerance, ecfg)
		if err != nil {
			return nil, fmt.Errorf("whatif %s: %w", s.Name(), err)
		}
		if row.Gated && !row.Pass {
			out.Failed++
		}
		out.Rows = append(out.Rows, row)
	}

	t := Table{
		Title:  "What-if: frozen-DAG prediction vs simulator re-run (quickstart)",
		Header: []string{"scenario", "baseline", "analytical", "empirical", "diff", "verdict"},
	}
	for _, r := range out.Rows {
		verdict := "PASS"
		switch {
		case !r.Gated:
			verdict = "info"
		case !r.Pass:
			verdict = "FAIL"
		}
		t.AddRow(r.Scenario, fmt.Sprintf("%d", r.Baseline),
			fmt.Sprintf("%d (%+.2f%%)", r.Analytical, 100*r.AnalyticalDelta),
			fmt.Sprintf("%d (%+.2f%%)", r.Empirical, 100*r.EmpiricalDelta),
			fmt.Sprintf("%.2f%%", 100*r.Diff), verdict)
	}
	t.Note("gated scenarios must agree within %.0f%%; 'info' rows change the task count and are not gated.",
		100*out.Tolerance)
	t.Render(w)
	return out, nil
}

// runScenario produces one cross-checked row.
func runScenario(g *critpath.Graph, base micro.Params, baseRes exec.Result, s WhatIfSpec, tol float64, ecfg exec.Config) (WhatIfRow, error) {
	row := WhatIfRow{Scenario: s.Name(), Baseline: baseRes.Cycles, Gated: true}

	// Empirical: re-run with the knob actually changed. Each run gets a
	// fresh observer so machines never share metric state.
	emp := base
	emp.Observer = obs.NewRegistry()
	cfg := sim.PentiumD8300()
	switch s.Kind {
	case "ident":
		// No change: the deterministic simulator must reproduce the
		// baseline byte-for-byte.
	case "dram":
		cfg.DRAMLat = uint64(float64(cfg.DRAMLat)*s.Factor + 0.5)
		emp.Machine = &cfg
	case "kernel":
		cfg.CPI /= s.Factor
		emp.Machine = &cfg
	case "strip":
		emp.StripScale = s.Factor
		row.Gated = false // changes the task count; the frozen DAG cannot follow
	case "1ctx":
		emp.SingleCtx = true
	default:
		return row, fmt.Errorf("unknown scenario kind %q", s.Kind)
	}
	empRes, err := runQuickstartStream(emp, nil, ecfg)
	if err != nil {
		return row, err
	}
	row.Empirical = empRes.Cycles
	row.EmpiricalDelta = delta(empRes.Cycles, baseRes.Cycles)

	// Analytical: replay the frozen DAG under the scenario.
	sc := critpath.Scenario{Name: s.Name(), Scale: [3]float64{1, 1, 1}}
	switch s.Kind {
	case "ident":
	case "kernel":
		// Kernel IPC ×F shrinks kernel task durations by 1/F — known a
		// priori, an independent prediction.
		sc.Scale[1] = 1 / s.Factor
	case "1ctx":
		sc.Serialize = true
	case "dram", "strip":
		// The knob's per-task effect depends on the memory system, so
		// the aggregate per-kind rescaling is derived from the
		// empirical run; the cross-check then validates how the DAG
		// propagates those per-task changes to the makespan.
		sc.Scale = critpath.KindScales(baseRes.KindCycles, empRes.KindCycles)
		row.Derived = true
	}
	pred := g.Predict(sc)
	row.Analytical = pred.Cycles
	row.AnalyticalDelta = pred.Delta

	row.Diff = row.AnalyticalDelta - row.EmpiricalDelta
	if row.Diff < 0 {
		row.Diff = -row.Diff
	}
	row.Pass = row.Diff <= tol
	return row, nil
}

// delta returns (cur-base)/base.
func delta(cur, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return (float64(cur) - float64(base)) / float64(base)
}
