package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// simApp is one in-process simulation of the sim phase: the app runs
// in the regular and the stream style, each on its own machine, and the
// two outputs are compared.
type simApp struct {
	name string
	run  func(ac *appCtx) (appRun, error)
}

// appCtx is what one app run needs from the pass driving it.
type appCtx struct {
	seed  int64
	ecfg  exec.Config
	tr    *tracer       // nil on untraced runs
	trace uint32        // trace id of this app run
	root  int32         // the app run's root span
	reg   *obs.Registry // non-nil on traced runs
}

// appRun is what one app run reports.
type appRun struct {
	regular, stream uint64        // simulated cycles of the two styles
	setup           time.Duration // time spent in the app's constructors
	setups, stages  []stageTime   // time spent in each constructor call and each later stage
	staged          bool          // run stage by stage, not as one call
	counts          simCounts     // traced runs only
}

// stageTime is the time one stage of an app run took.
type stageTime struct {
	name string
	d    time.Duration
}

// timed runs f as the named stage of the app run.
func (out *appRun) timed(name string, f func()) {
	t0 := time.Now()
	f()
	out.stages = append(out.stages, stageTime{name, time.Since(t0)})
}

// simCounts are the layer counts a traced run reads from the machines
// and the obs registry, summed over both machines of an app run.
type simCounts struct {
	accesses, tlbMisses, busBytes uint64
	fast, slow                    uint64 // bulk accesses served by the fast path or not
	gatherElems, gatherIndexed    uint64
	scatterElems, wqEnqueued      uint64
}

func (c *simCounts) add(o simCounts) {
	c.accesses += o.accesses
	c.tlbMisses += o.tlbMisses
	c.busBytes += o.busBytes
	c.fast += o.fast
	c.slow += o.slow
	c.gatherElems += o.gatherElems
	c.gatherIndexed += o.gatherIndexed
	c.scatterElems += o.scatterElems
	c.wqEnqueued += o.wqEnqueued
}

// addMachine adds one machine's cumulative simulator counters.
func (c *simCounts) addMachine(st sim.MachineStats) {
	cov := st.CovTotal()
	c.accesses += st.Mem.Accesses
	c.tlbMisses += st.TLB.Misses
	c.busBytes += st.Bus.Bytes
	c.fast += cov.FastAccesses
	c.slow += cov.SlowAccesses
}

// addMachineGauges adds the sim.* gauges a machine publishes into its
// registry at the end of each Machine.Run: they hold that machine's
// cumulative counters until the next machine sharing the registry
// publishes over them.
func (c *simCounts) addMachineGauges(r *obs.Registry) {
	c.accesses += uint64(r.Gauge("sim.mem.accesses").Value())
	c.tlbMisses += uint64(r.Gauge("sim.tlb.misses").Value())
	c.busBytes += uint64(r.Gauge("sim.bus.bytes").Value())
	c.fast += uint64(r.Gauge("coverage.fast_accesses").Value())
	c.slow += uint64(r.Gauge("coverage.slow_accesses").Value())
}

// addLayerCounters adds the svm and wq counters, which accumulate over
// every machine sharing the registry.
func (c *simCounts) addLayerCounters(r *obs.Registry) {
	s := r.Snapshot()
	val := func(name string) uint64 { return uint64(s[name].Value) }
	c.gatherElems += val("svm.gather.elems")
	c.gatherIndexed += val("svm.gather.indexed_elems")
	c.scatterElems += val("svm.scatter.elems")
	for name, v := range s {
		if strings.HasPrefix(name, "wq.enqueued.") {
			c.wqEnqueued += uint64(v.Value)
		}
	}
}

// staged drives an app that exposes NewInstance, RunRegular and Graph
// through those public functions, so that each stage is its own span.
// It repeats what the app's own Run does for one time step, including
// the output check.
type staged[I any] struct {
	name    string
	new     func() (I, error)
	machine func(I) *sim.Machine
	regular func(I, exec.Config) exec.Result
	graph   func(I) *sdf.Graph
	check   func(reg, str I) error
}

func (a staged[I]) app() simApp { return simApp{name: a.name, run: a.run} }

func (a staged[I]) run(ac *appCtx) (appRun, error) {
	out := appRun{staged: true}
	newInst := func(role string) (I, error) {
		t0 := time.Now()
		sp := ac.tr.begin("apps.setup", ac.trace, ac.root)
		inst, err := a.new()
		ac.tr.end(sp)
		d := time.Since(t0)
		out.setup += d
		out.setups = append(out.setups, stageTime{"new " + role, d})
		return inst, err
	}
	reg, err := newInst("regular")
	if err != nil {
		return out, err
	}
	str, err := newInst("stream")
	if err != nil {
		return out, err
	}

	out.timed("regular", func() {
		sp := ac.tr.begin("exec.regular", ac.trace, ac.root)
		out.regular = a.regular(reg, ac.ecfg).Cycles
		ac.tr.end(sp)
	})

	var prog *compiler.Program
	out.timed("compile", func() {
		sp := ac.tr.begin("compiler.compile", ac.trace, ac.root)
		gsp := ac.tr.begin("apps.graph", ac.trace, sp)
		g := a.graph(str)
		ac.tr.end(gsp)
		prog, err = compiler.Compile(g, compiler.DefaultOptions(svm.DefaultSRF(a.machine(str))))
		ac.tr.end(sp)
	})
	if err != nil {
		return out, err
	}
	var sr exec.Result
	out.timed("stream", func() {
		sp := ac.tr.begin("exec.stream", ac.trace, ac.root)
		sr, err = exec.RunStream2Ctx(a.machine(str), prog, ac.ecfg)
		ac.tr.end(sp)
	})
	if err != nil {
		return out, err
	}
	out.stream = sr.Cycles
	out.timed("check", func() { err = a.check(reg, str) })
	if err != nil {
		return out, err
	}
	if ac.reg != nil {
		out.counts.addMachine(a.machine(reg).StatsSnapshot())
		out.counts.addMachine(a.machine(str).StatsSnapshot())
		out.counts.addLayerCounters(ac.reg)
	}
	return out, nil
}

// microApp drives a micro-benchmark, which exposes no constructor: the
// whole micro.Run* call is one span, and the call checks that the two
// styles agree.
func microApp(name string, run func(micro.Params, exec.Config) (micro.Result, error), n int) simApp {
	return simApp{name: name, run: func(ac *appCtx) (appRun, error) {
		var out appRun
		ecfg := ac.ecfg
		if ac.reg != nil {
			// Both machines share the registry, and the stream machine
			// publishes its sim.* gauges over the regular machine's at
			// the end of its run. Its first progress frame comes after
			// the regular run has ended and before that, so read the
			// regular machine's gauges there.
			seen := false
			ecfg.Progress = func(exec.ProgressFrame) {
				if !seen {
					seen = true
					out.counts.addMachineGauges(ac.reg)
				}
			}
		}
		var res micro.Result
		var err error
		out.timed("run", func() {
			sp := ac.tr.begin("apps.micro_run", ac.trace, ac.root)
			res, err = run(micro.Params{N: n, Comp: 1, Seed: ac.seed, Observer: ac.reg}, ecfg)
			ac.tr.end(sp)
		})
		if err != nil {
			return out, err
		}
		out.regular, out.stream = res.Regular.Cycles, res.Stream.Cycles
		if ac.reg != nil {
			out.counts.addMachineGauges(ac.reg)
			out.counts.addLayerCounters(ac.reg)
		}
		return out, nil
	}}
}

func cdpApp(dims []int) simApp {
	p := cdp.Params{Dims: dims, Steps: 1}
	return staged[*cdp.Instance]{
		name:    "CDP " + p.Name(),
		new:     func() (*cdp.Instance, error) { return cdp.NewInstance(p) },
		machine: func(i *cdp.Instance) *sim.Machine { return i.M },
		regular: (*cdp.Instance).RunRegular,
		graph:   (*cdp.Instance).Graph,
		check: func(reg, str *cdp.Instance) error {
			if err := closeEnough("phi", reg.Phi.Data, str.Phi.Data); err != nil {
				return err
			}
			return closeEnough("max residual", []float64{reg.MaxRes}, []float64{str.MaxRes})
		},
	}.app()
}

func spasApp(rows int, seed int64) simApp {
	p := spas.Params{Rows: rows, NNZPerRow: spas.PaperNNZPerRow, Seed: seed}
	return staged[*spas.Instance]{
		name:    fmt.Sprintf("SPAS %d", rows),
		new:     func() (*spas.Instance, error) { return spas.NewInstance(p) },
		machine: func(i *spas.Instance) *sim.Machine { return i.M },
		regular: (*spas.Instance).RunRegular,
		graph:   (*spas.Instance).Graph,
		check:   func(reg, str *spas.Instance) error { return closeEnough("y", reg.Y.Data, str.Y.Data) },
	}.app()
}

func neoApp(elems int, seed int64) simApp {
	p := neo.Params{Elements: elems, Seed: seed}
	return staged[*neo.Instance]{
		name:    fmt.Sprintf("Neo %d", elems),
		new:     func() (*neo.Instance, error) { return neo.NewInstance(p) },
		machine: func(i *neo.Instance) *sim.Machine { return i.M },
		regular: (*neo.Instance).RunRegular,
		graph:   (*neo.Instance).Graph,
		check: func(reg, str *neo.Instance) error {
			if err := identical("tangent", reg.Tan.Data, str.Tan.Data); err != nil {
				return err
			}
			return identical("PK stress", reg.P9.Data, str.P9.Data)
		},
	}.app()
}

func femApp(p fem.Params) simApp {
	p.Steps = 1
	return staged[*fem.Instance]{
		name:    "FEM " + p.Name(),
		new:     func() (*fem.Instance, error) { return fem.NewInstance(p) },
		machine: func(i *fem.Instance) *sim.Machine { return i.M },
		regular: (*fem.Instance).RunRegular,
		graph:   (*fem.Instance).Graph,
		check:   func(reg, str *fem.Instance) error { return closeEnough("state", reg.U.Data, str.U.Data) },
	}.app()
}

// closeEnough applies the apps' own tolerance for the regular and
// stream outputs: a relative difference of at most 1e-9.
func closeEnough(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		scale := math.Max(math.Max(math.Abs(a[i]), math.Abs(b[i])), 1)
		if math.Abs(a[i]-b[i])/scale > 1e-9 {
			return fmt.Errorf("%s[%d] differs: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

// identical checks outputs the app defines to agree bit for bit.
func identical(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d] differs: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}
