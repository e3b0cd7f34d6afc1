package advisor

import (
	"bytes"
	"strings"
	"testing"

	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/critpath"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// measureApp runs one bundled app's stream version with the payload
// counters and the task trace attached, and distils the Measured
// record the calibration needs.
func measureApp(t *testing.T, run func(exec.Config) (exec.Result, uint64, uint64, error)) Measured {
	t.Helper()
	cfg := exec.Defaults()
	cfg.Trace = &exec.Trace{}
	res, gatherB, scatterB, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := critpath.Build(cfg.Trace, res.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	p := g.CriticalPath()
	by := p.ByKind()
	return Measured{
		GatherBytes:  gatherB,
		ScatterBytes: scatterB,
		PathGather:   by[critpath.SegGather],
		PathKernel:   by[critpath.SegKernel],
		PathScatter:  by[critpath.SegScatter],
		PathWait:     by[critpath.SegDepWait] + by[critpath.SegQueueWait] + by[critpath.SegRecovery],
		PathLength:   p.Length,
	}
}

// payloads reads the runtime's exact array-side byte counters.
func payloads(r *obs.Registry) (gather, scatter uint64) {
	return r.Counter("svm.gather.array_bytes").Value(),
		r.Counter("svm.scatter.array_bytes").Value()
}

// TestCalibrationPerApp validates the advisor against a measured run of
// every bundled application: the payload traffic prediction must be
// exact (it is statically computable), and the predicted memory/compute
// bound must match the critical path's measured bound. Steps = 1 for
// streamFEM so one pass is measured, matching the per-pass estimate.
func TestCalibrationPerApp(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	type tc struct {
		name string
		run  func() (*Report, Measured)
	}
	cases := []tc{
		{"fem-euler-lin", func() (*Report, Measured) {
			reg := obs.NewRegistry()
			sim.SetDefaultObserver(reg)
			defer sim.SetDefaultObserver(nil)
			p := fem.EulerLin
			p.Steps = 1
			s := fem.Spec(p)
			inst, err := s.New()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Analyze(inst.Graph(), sim.PentiumD8300())
			if err != nil {
				t.Fatal(err)
			}
			m := measureApp(t, func(cfg exec.Config) (exec.Result, uint64, uint64, error) {
				res, _, err := s.Stream(inst, cfg)
				gather, scatter := payloads(reg)
				return res, gather, scatter, err
			})
			return r, m
		}},
		{"neo-32k", func() (*Report, Measured) {
			reg := obs.NewRegistry()
			sim.SetDefaultObserver(reg)
			defer sim.SetDefaultObserver(nil)
			s := neo.Spec(neo.Params{Elements: 32768})
			inst, err := s.New()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Analyze(inst.Graph(), sim.PentiumD8300())
			if err != nil {
				t.Fatal(err)
			}
			m := measureApp(t, func(cfg exec.Config) (exec.Result, uint64, uint64, error) {
				res, _, err := s.Stream(inst, cfg)
				gather, scatter := payloads(reg)
				return res, gather, scatter, err
			})
			return r, m
		}},
		{"spas-16k", func() (*Report, Measured) {
			reg := obs.NewRegistry()
			sim.SetDefaultObserver(reg)
			defer sim.SetDefaultObserver(nil)
			s := spas.Spec(spas.Params{Rows: 16000, NNZPerRow: 46, Seed: 2})
			inst, err := s.New()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Analyze(inst.Graph(), sim.PentiumD8300())
			if err != nil {
				t.Fatal(err)
			}
			m := measureApp(t, func(cfg exec.Config) (exec.Result, uint64, uint64, error) {
				res, _, err := s.Stream(inst, cfg)
				gather, scatter := payloads(reg)
				return res, gather, scatter, err
			})
			return r, m
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, m := c.run()
			cal := rep.Calibrate(m)
			var buf bytes.Buffer
			cal.Render(&buf)
			t.Logf("%s:\n%s", c.name, buf.String())
			if cal.GatherPayloadRatio != 1 || cal.ScatterPayloadRatio != 1 {
				t.Errorf("payload prediction not exact: gather %.6f scatter %.6f",
					cal.GatherPayloadRatio, cal.ScatterPayloadRatio)
			}
			if !cal.BoundAgree {
				t.Errorf("bound disagrees: %v", cal.Notes)
			}
			// Fetch amplification is allowed below 1 — the estimate
			// credits cache reuse for indexed gathers (one fetched line
			// serving several touches: spas reads x repeatedly, fem
			// multi-gathers shared nodes) — but must stay inside the
			// band observed across the bundled apps. Measured 2026-08:
			// gather 0.76–1.69, scatter 1.00–1.20. Widening this band
			// means the traffic model drifted; investigate before
			// relaxing it.
			if cal.GatherAmplification < 0.5 || cal.GatherAmplification > 4 {
				t.Errorf("gather fetch amplification %.3f outside tracked [0.5, 4] band", cal.GatherAmplification)
			}
			if cal.ScatterAmplification < 0.9 || cal.ScatterAmplification > 4 {
				t.Errorf("scatter fetch amplification %.3f outside tracked [0.9, 4] band", cal.ScatterAmplification)
			}
		})
	}
}

func TestCalibrationRender(t *testing.T) {
	r := &Report{EstMemCycles: 100, EstCompCycles: 50,
		PayloadGatherBytes: 1000, PayloadScatterBytes: 500, GatherBytes: 2000, ScatterBytes: 500}
	m := Measured{GatherBytes: 1000, ScatterBytes: 500,
		PathGather: 60, PathKernel: 30, PathScatter: 20, PathWait: 10, PathLength: 120}
	cal := r.Calibrate(m)
	if !cal.BoundAgree || cal.PredictedBound != "memory" {
		t.Fatalf("calibration %+v", cal)
	}
	var buf bytes.Buffer
	cal.Render(&buf)
	for _, want := range []string{"memory-bound", "[AGREE]", "payload ratio", "wait fraction"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}
