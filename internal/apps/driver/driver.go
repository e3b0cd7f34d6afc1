// Package driver runs the paper's one comparison (§IV-A step 7) for
// every app: the conventional code and the stream program, each on a
// machine of its own, checked to agree, and reported as regular over
// stream cycles. An app supplies only what differs — its instance,
// regular loops, graph, compile options and output slices — as a Spec.
package driver

import (
	"fmt"
	"math"

	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// Instance is one app problem materialised on a machine of its own.
type Instance struct {
	M *sim.Machine
	// Regular runs the conventional code, every time step included.
	Regular func(exec.Config) exec.Result
	// Graph builds the stream program over the instance's arrays.
	Graph func() *sdf.Graph
	// Step, when non-nil, runs before each time step of the stream
	// program.
	Step func()
	// Outputs returns the arrays the two styles must agree on.
	Outputs func() [][]float64
}

// Spec is one app's regular-vs-stream comparison.
type Spec struct {
	Name string // display name, e.g. "streamFEM Euler-lin"
	// New builds a fresh instance; Run calls it once per style.
	New func() (Instance, error)
	// Steps is the number of time steps the stream program runs (0
	// runs one).
	Steps int
	// Tol is the output check's relative tolerance, with scale
	// max(|regular|, 1); 0 demands identical outputs. Apps whose
	// styles sum scatter-adds in different orders need a small one.
	Tol float64
	// Options, when non-nil, adjusts the default compile options.
	Options func(*compiler.Options)
	// SingleCtx runs the stream program on one hardware context
	// instead of the paper's two-context mapping.
	SingleCtx bool
	// Observer, when non-nil, is attached to both machines right after
	// construction.
	Observer *obs.Registry
}

// Result is one regular-vs-stream comparison whose outputs agree.
type Result struct {
	Name    string
	Regular exec.Result
	Stream  exec.Result
	Speedup float64 // regular over stream cycles
	// Graph is the stream program that was compiled and run, kept for
	// post-run analysis (the advisor's static estimate, critical-path
	// calibration).
	Graph *sdf.Graph
}

// Run builds and runs the regular instance, then the stream instance,
// and checks that both left the same outputs. A cancelled cfg.Ctx stops
// it at the boundary between the two, with no partial result.
func Run(s Spec, cfg exec.Config) (Result, error) {
	reg, err := s.build()
	if err != nil {
		return Result{}, err
	}
	regRes := reg.Regular(cfg)
	if err := cfg.Aborted(); err != nil {
		return Result{}, err
	}
	str, err := s.build()
	if err != nil {
		return Result{}, err
	}
	strRes, g, err := s.Stream(str, cfg)
	if err != nil {
		return Result{}, err
	}
	if err := s.check(reg.Outputs(), str.Outputs()); err != nil {
		return Result{}, err
	}
	return Result{Name: s.Name, Regular: regRes, Stream: strRes, Speedup: exec.Speedup(regRes, strRes), Graph: g}, nil
}

func (s Spec) build() (Instance, error) {
	inst, err := s.New()
	if err == nil && s.Observer != nil {
		inst.M.SetObserver(s.Observer)
	}
	return inst, err
}

// Stream compiles inst's graph and runs it for s.Steps time steps. It
// returns the graph it compiled.
func (s Spec) Stream(inst Instance, cfg exec.Config) (exec.Result, *sdf.Graph, error) {
	g := inst.Graph()
	opt := compiler.DefaultOptions(svm.DefaultSRF(inst.M))
	if s.Options != nil {
		s.Options(&opt)
	}
	prog, err := compiler.Compile(g, opt)
	if err != nil {
		return exec.Result{}, g, err
	}
	run := exec.RunStream2Ctx
	if s.SingleCtx {
		run = exec.RunStream1Ctx
	}
	res, err := Steps(s.Steps, func() (exec.Result, error) {
		if inst.Step != nil {
			inst.Step()
		}
		return run(inst.M, prog, cfg)
	})
	return res, g, err
}

// Steps runs step n times (at least once) and sums the runs' cycles,
// per-kind cycles and recovery activity. Run and Queue are the last
// step's.
func Steps(n int, step func() (exec.Result, error)) (exec.Result, error) {
	var total exec.Result
	for s := 0; s < max(n, 1); s++ {
		r, err := step()
		if err != nil {
			return total, err
		}
		total.Cycles += r.Cycles
		total.Run, total.Queue = r.Run, r.Queue
		for k := range r.KindCycles {
			total.KindCycles[k] += r.KindCycles[k]
		}
		total.Recovery.Accumulate(r.Recovery)
	}
	return total, nil
}

// check compares the stream run's outputs with the regular run's.
func (s Spec) check(reg, str [][]float64) error {
	for k, a := range reg {
		b := str[k]
		if len(a) != len(b) {
			return fmt.Errorf("%s: output %d has length %d vs %d", s.Name, k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] && !(math.Abs(a[i]-b[i])/math.Max(math.Abs(a[i]), 1) <= s.Tol) {
				return fmt.Errorf("%s: output %d element %d differs: %v vs %v", s.Name, k, i, a[i], b[i])
			}
		}
	}
	return nil
}
