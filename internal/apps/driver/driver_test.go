package driver_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"streamgpp/internal/apps/driver"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/wq"
)

// TestStepsSumsEveryStep checks the step loop's accounting: cycles,
// per-kind cycles and recovery activity add up over the steps, while
// Run and Queue are the last step's.
func TestStepsSumsEveryStep(t *testing.T) {
	queues := []*wq.DWQ{{}, {}, {}}
	s := 0
	total, err := driver.Steps(3, func() (exec.Result, error) {
		r := exec.Result{
			Cycles:     uint64(10 * (s + 1)),
			Run:        sim.RunStats{Cycles: uint64(s)},
			Queue:      queues[s],
			KindCycles: [3]uint64{1, 2, 3},
			Recovery:   exec.RecoverySummary{FaultsInjected: 2, Retries: 2, Degraded: s == 1},
		}
		s++
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s != 3 || total.Cycles != 60 || total.KindCycles != [3]uint64{3, 6, 9} {
		t.Fatalf("%d steps, cycles %d, kind cycles %v", s, total.Cycles, total.KindCycles)
	}
	if total.Run.Cycles != 2 || total.Queue != queues[2] {
		t.Fatalf("Run and Queue are not the last step's: %d, %p", total.Run.Cycles, total.Queue)
	}
	if rec := total.Recovery; rec.FaultsInjected != 6 || rec.Retries != 6 || !rec.Degraded {
		t.Fatalf("recovery not summed: %v", rec)
	}
}

// TestStepsRunsOnceAndStopsAtError: a step count below one runs one
// step, and the first failing step ends the loop.
func TestStepsRunsOnceAndStopsAtError(t *testing.T) {
	n := 0
	if _, err := driver.Steps(0, func() (exec.Result, error) { n++; return exec.Result{}, nil }); err != nil || n != 1 {
		t.Fatalf("Steps(0) ran %d steps, err %v", n, err)
	}
	n = 0
	_, err := driver.Steps(3, func() (exec.Result, error) {
		n++
		return exec.Result{}, context.Canceled
	})
	if err != context.Canceled || n != 1 {
		t.Fatalf("ran %d steps after an error, err %v", n, err)
	}
}

// TestRunStopsAtStageBoundary: a context cancelled during the regular
// run stops Run before it builds the stream instance.
func TestRunStopsAtStageBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	built := 0
	s := driver.Spec{Name: "cancelled", New: func() (driver.Instance, error) {
		built++
		return driver.Instance{Regular: func(exec.Config) exec.Result {
			cancel()
			return exec.Result{Cycles: 1}
		}}, nil
	}}
	cfg := exec.Defaults()
	cfg.Ctx = ctx
	res, err := driver.Run(s, cfg)
	if err == nil || built != 1 || res.Regular.Cycles != 0 {
		t.Fatalf("err %v after %d instances, partial result %+v", err, built, res)
	}
}

// TestRunChecksOutputs runs LD-ST-COMP with its regular and stream
// outputs forced apart and together, under an exact and a relative
// tolerance.
func TestRunChecksOutputs(t *testing.T) {
	base := micro.LDSTSpec(micro.Params{N: 2000, Comp: 1, Seed: 1})
	for _, c := range []struct {
		name    string
		tol     float64
		reg     float64 // what the regular run's first output becomes
		str     float64 // what the stream run's first output becomes
		wantErr bool
	}{
		{"exact equal", 0, 3, 3, false},
		{"exact one ulp", 0, 3, math.Nextafter(3, 4), true},
		{"relative within", 1e-9, 3, 3 * (1 + 1e-10), false},
		{"relative beyond", 1e-9, 3, 3 * (1 + 1e-8), true},
		{"scale floor of one", 1e-9, 1e-12, 5e-10, false},
		{"NaN exact", 0, math.NaN(), math.NaN(), true},
		{"NaN relative", 1e-9, 3, math.NaN(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := base
			s.Tol = c.tol
			built := 0
			s.New = func() (driver.Instance, error) {
				inst, err := base.New()
				v := c.reg
				if built++; built > 1 {
					v = c.str
				}
				outputs := inst.Outputs
				inst.Outputs = func() [][]float64 {
					out := outputs()
					out[0][0] = v
					return out
				}
				return inst, err
			}
			_, err := driver.Run(s, exec.Defaults())
			if (err != nil) != c.wantErr {
				t.Fatalf("err %v, want error %v", err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), "LD-ST-COMP: output 0 element 0 differs") {
				t.Fatalf("error does not name the app and element: %v", err)
			}
		})
	}
}

// TestRunObservesBothMachinesAndReturnsCompiledGraph: Observer is
// attached to the regular and the stream machine, and Result.Graph is
// the graph the stream run compiled, not a second build.
func TestRunObservesBothMachinesAndReturnsCompiledGraph(t *testing.T) {
	s := micro.LDSTSpec(micro.Params{N: 20000, Comp: 1, Seed: 1})
	reg := obs.NewRegistry()
	s.Observer = reg
	var machines []*sim.Machine
	newInst := s.New
	s.New = func() (driver.Instance, error) {
		inst, err := newInst()
		machines = append(machines, inst.M)
		return inst, err
	}
	res, err := driver.Run(s, exec.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2 || machines[0] == machines[1] {
		t.Fatalf("built %d machines, want two distinct ones", len(machines))
	}
	for i, m := range machines {
		if m.Observer() != reg {
			t.Fatalf("machine %d is not observed", i)
		}
	}
	if res.Name != "LD-ST-COMP" || res.Speedup != exec.Speedup(res.Regular, res.Stream) {
		t.Fatalf("name %q, speedup %v", res.Name, res.Speedup)
	}
	for _, e := range res.Graph.Edges {
		if !e.Stream.Buffered() {
			t.Fatalf("edge %s of the returned graph was never compiled", e.Name())
		}
	}
}
