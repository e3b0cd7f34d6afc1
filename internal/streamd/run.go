package streamd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"streamgpp/internal/apps"
	"streamgpp/internal/bench"
	"streamgpp/internal/covreport"
	"streamgpp/internal/exec"
	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// artifacts is everything one completed run produced. The payload is
// deterministic JSON — no timestamps, no job IDs, maps only with
// sorted-key encoding — so two runs of the same canonical spec yield
// byte-identical payloads, which is the invariant the content-addressed
// cache serves under.
type artifacts struct {
	payload  []byte // ResultPayload JSON
	hash     string // obs.Hash of the payload bytes
	trace    []byte // Perfetto JSON, nil unless requested
	coverage []byte // covreport JSON, nil unless requested

	// Ledger-only facts (not part of the cached payload identity).
	simCycles uint64
	metrics   map[string]float64
}

// ResultPayload is the JSON result of a completed job.
type ResultPayload struct {
	App       string `json:"app"`
	Canonical string `json:"canonical"`
	Key       string `json:"key"`

	// Micro-benchmark results.
	RegularCycles uint64    `json:"regular_cycles,omitempty"`
	StreamCycles  uint64    `json:"stream_cycles,omitempty"`
	Speedup       float64   `json:"speedup,omitempty"`
	KindCycles    [3]uint64 `json:"kind_cycles,omitempty"` // gather, kernel, scatter

	// Fault-injection and recovery accounting (zero without -fault).
	FaultSeed      uint64 `json:"fault_seed,omitempty"` // effective derived seed
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Retries        uint64 `json:"retries,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`

	// What-if results (WHATIF jobs only).
	WhatIf       []bench.WhatIfRow `json:"whatif,omitempty"`
	WhatIfFailed int               `json:"whatif_failed,omitempty"`
	Report       string            `json:"report,omitempty"` // rendered verdict table
}

// runSpec executes a validated job spec under ctx and returns its
// artifacts. It is a pure function of (spec, baseFaultSeed): the
// context only decides whether the run completes, never what it
// computes — a cancelled run returns an error and no artifacts. The
// progress hook (may be nil) is likewise non-semantic: it is
// clock-neutral by the executor's contract (exec.ProgressFrame), so
// attaching it changes neither cycles nor payload bytes. WHATIF jobs
// run several scenarios back to back; their frames restart Done/Total
// per scenario.
func runSpec(ctx context.Context, spec JobSpec, canonical, key string, baseFaultSeed uint64, progress func(exec.ProgressFrame)) (*artifacts, error) {
	ecfg := exec.Defaults()
	ecfg.Ctx = ctx
	ecfg.Progress = progress

	pay := ResultPayload{App: spec.App, Canonical: canonical, Key: key}

	if spec.Fault != "" {
		fcfg, err := fault.ParseSpec(spec.Fault)
		if err != nil {
			return nil, err // validated at admission; defensive
		}
		base := spec.FaultSeed
		if base == 0 {
			base = baseFaultSeed
		}
		// Derived from the canonical identity, not the job ID: every
		// submission of this spec replays the same fault schedule, so
		// cached and fresh results agree even under injection.
		fcfg.Seed = fault.DeriveSeed(base, canonical)
		ecfg.Fault = fault.New(fcfg)
		pay.FaultSeed = fcfg.Seed
	}

	var tr *exec.Trace
	if spec.Trace {
		tr = &exec.Trace{}
		ecfg.Trace = tr
	}
	reg := obs.NewRegistry()

	var streamCycles uint64
	switch spec.App {
	case "WHATIF":
		specs, err := bench.ParseWhatIf(spec.WhatIf)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		res, err := bench.RunWhatIf(&buf, spec.Quick, specs, ecfg)
		if err != nil {
			return nil, err
		}
		pay.WhatIf = res.Rows
		pay.WhatIfFailed = res.Failed
		pay.Report = buf.String()
		for _, r := range res.Rows {
			streamCycles += r.Empirical
		}
	default:
		app, _ := apps.ByName(spec.App) // validated at admission
		res, err := app.Run(apps.Params{N: spec.N, Comp: spec.Comp, Seed: spec.Seed, Observer: reg}, ecfg)
		if err != nil {
			return nil, err
		}
		pay.RegularCycles = res.Regular.Cycles
		pay.StreamCycles = res.Stream.Cycles
		pay.Speedup = exec.Speedup(res.Regular, res.Stream)
		pay.KindCycles = res.Stream.KindCycles
		pay.FaultsInjected = res.Stream.Recovery.FaultsInjected
		pay.Retries = res.Stream.Recovery.Retries
		pay.Degraded = res.Stream.Recovery.Degraded
		streamCycles = res.Stream.Cycles
	}

	a := &artifacts{simCycles: streamCycles, metrics: obs.FlattenSnapshot(reg.Snapshot())}
	var err error
	if a.payload, err = json.Marshal(pay); err != nil {
		return nil, fmt.Errorf("streamd: marshalling result: %w", err)
	}
	a.hash = obs.Hash(string(a.payload))

	if spec.Trace {
		var buf bytes.Buffer
		if err := tr.WritePerfetto(&buf, spec.App, sim.PentiumD8300().FreqHz/1e6); err != nil {
			return nil, fmt.Errorf("streamd: trace export: %w", err)
		}
		a.trace = buf.Bytes()
	}
	if spec.Coverage {
		rep := covreport.New(a.metrics, streamCycles, sim.PentiumD8300())
		if a.coverage, err = json.Marshal(rep); err != nil {
			return nil, fmt.Errorf("streamd: coverage export: %w", err)
		}
	}
	return a, nil
}
