// Benchmarks regenerating every figure of the paper's evaluation.
// Each benchmark runs one figure's experiment end to end on the
// simulated Pentium 4 and reports the headline simulated-cycle numbers
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// whole evaluation section. Wall-clock ns/op measures the simulator,
// not the modelled machine; the sim-* metrics are the paper's numbers.
package streamgpp_test

import (
	"io"
	"os"
	"testing"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/bench"
	"streamgpp/internal/cluster"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// reportCoverage re-runs the workload once, untimed, with a metrics
// registry attached, and reports the stream run's fast-path coverage %
// (what fraction of bulk accesses the simulator's fast path served).
// The timed iterations run observer-free so the instrumentation cannot
// distort ns/op; the extra run is deterministic, so its coverage is
// exactly the timed runs' coverage.
func reportCoverage(b *testing.B, fn func() error) {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	reg := obs.NewRegistry()
	sim.SetDefaultObserver(reg)
	defer sim.SetDefaultObserver(nil)
	if err := fn(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(reg.Gauge("coverage.fastpath_pct").Value(), "fastpath-cov-pct")
	reportRuntime(b)
}

// reportRuntime samples the Go runtime after the timed iterations and
// reports the simulator process's memory footprint and GC behaviour:
// live heap bytes and the p99 GC stop-the-world pause. bench.sh folds
// both into BENCH_history.jsonl, so heap growth or GC regressions in
// the simulator show up in the same ledger as wall-clock regressions.
func reportRuntime(b *testing.B) {
	b.Helper()
	reg := obs.NewRegistry()
	rc := obs.NewRuntimeCollector(reg)
	rc.Collect()
	b.ReportMetric(reg.Gauge("go.heap.inuse_bytes").Value(), "heap-inuse-bytes")
	b.ReportMetric(reg.Histogram("go.gc.pause_us").Quantile(0.99)*1e3, "gc-pause-p99-ns")
}

// referencePath lets the wall-clock benchmarks measure the simulator
// with its bulk fast path disabled (STREAMGPP_FASTPATH=off), so
// before/after comparisons run the same binary on the same machine.
var referencePath = os.Getenv("STREAMGPP_FASTPATH") == "off"

// execConfig is exec.Defaults() on the path STREAMGPP_FASTPATH selects.
func execConfig() exec.Config {
	cfg := exec.Defaults()
	cfg.ReferencePath = referencePath
	return cfg
}

// quick is the experiment options every figure benchmark runs with.
var quick = bench.Options{Quick: true, ReferencePath: referencePath}

// BenchmarkFig5Bandwidth sweeps the Fig. 5 gather/scatter bandwidth
// characterisation (all four panels, plain and non-temporal).
func BenchmarkFig5Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5(io.Discard, quick); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bench.BandwidthProbe{RecordBytes: 4, TotalBytes: 8 << 20}.Run(), "seq-load-GB/s")
	b.ReportMetric(bench.BandwidthProbe{RecordBytes: 128, Random: true, TotalBytes: 8 << 20}.Run(), "rand-gather-GB/s")
	reportRuntime(b)
}

// BenchmarkFig6Overlap runs the computation/memory SMT overlap
// experiment.
func BenchmarkFig6Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6(io.Discard, quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8BusyWait runs the PAUSE vs MONITOR/MWAIT comparison.
func BenchmarkFig8BusyWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig8(io.Discard, quick); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMicro runs one micro-benchmark configuration per iteration and
// reports its stream/regular speedup.
func benchMicro(b *testing.B, run func(micro.Params, exec.Config) (micro.Result, error), comp int) {
	b.Helper()
	var last micro.Result
	for i := 0; i < b.N; i++ {
		r, err := run(micro.Params{N: 100000, Comp: comp, Seed: 9}, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.Stream.Cycles), "sim-cycles")
	reportCoverage(b, func() error {
		_, err := run(micro.Params{N: 100000, Comp: comp, Seed: 9}, execConfig())
		return err
	})
}

// BenchmarkFig9* sweep the three micro-benchmarks at the knee points of
// the COMP curves.
func BenchmarkFig9LDSTCompLow(b *testing.B)  { benchMicro(b, micro.RunLDST, 1) }
func BenchmarkFig9LDSTCompHigh(b *testing.B) { benchMicro(b, micro.RunLDST, 16) }
func BenchmarkFig9GATSCATLow(b *testing.B)   { benchMicro(b, micro.RunGATSCAT, 1) }
func BenchmarkFig9GATSCATMid(b *testing.B)   { benchMicro(b, micro.RunGATSCAT, 4) }
func BenchmarkFig9PRODCONLow(b *testing.B)   { benchMicro(b, micro.RunPRODCON, 1) }
func BenchmarkFig9PRODCONMid(b *testing.B)   { benchMicro(b, micro.RunPRODCON, 4) }

// BenchmarkFig11aFEM* run the four streamFEM configurations.
func benchFEM(b *testing.B, p fem.Params) {
	b.Helper()
	p.Steps = 1
	var last fem.Result
	for i := 0; i < b.N; i++ {
		r, err := fem.Run(p, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.Stream.Cycles), "sim-cycles")
	reportCoverage(b, func() error {
		_, err := fem.Run(p, execConfig())
		return err
	})
}

func BenchmarkFig11aFEMEulerLin(b *testing.B)  { benchFEM(b, fem.EulerLin) }
func BenchmarkFig11aFEMEulerQuad(b *testing.B) { benchFEM(b, fem.EulerQuad) }
func BenchmarkFig11aFEMMHDLin(b *testing.B)    { benchFEM(b, fem.MHDLin) }
func BenchmarkFig11aFEMMHDQuad(b *testing.B)   { benchFEM(b, fem.MHDQuad) }

// BenchmarkFig11bCDP* run the four streamCDP configurations.
func benchCDP(b *testing.B, p cdp.Params) {
	b.Helper()
	p.Steps = 1
	var last cdp.Result
	for i := 0; i < b.N; i++ {
		r, err := cdp.Run(p, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.Stream.Cycles), "sim-cycles")
	reportCoverage(b, func() error {
		_, err := cdp.Run(p, execConfig())
		return err
	})
}

func BenchmarkFig11bCDP4n4096(b *testing.B) { benchCDP(b, cdp.Grid4n4096) }
func BenchmarkFig11bCDP4n8192(b *testing.B) { benchCDP(b, cdp.Grid4n8192) }
func BenchmarkFig11bCDP6n4096(b *testing.B) { benchCDP(b, cdp.Grid6n4096) }
func BenchmarkFig11bCDP6n8192(b *testing.B) { benchCDP(b, cdp.Grid6n8192) }

// BenchmarkFig11cNeo runs the neo-hookean constitutive update.
func BenchmarkFig11cNeo(b *testing.B) {
	var last neo.Result
	for i := 0; i < b.N; i++ {
		r, err := neo.Run(neo.Params{Elements: 32768, Seed: 11}, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.SavedBytes), "saved-bytes")
	b.ReportMetric(float64(last.Stream.Cycles), "sim-cycles")
	reportCoverage(b, func() error {
		_, err := neo.Run(neo.Params{Elements: 32768, Seed: 11}, execConfig())
		return err
	})
}

// BenchmarkFig11dSPAS* run the SpMV comparison at a cache-resident and
// a cache-exceeding size.
func benchSPAS(b *testing.B, rows int) {
	b.Helper()
	var last spas.Result
	for i := 0; i < b.N; i++ {
		r, err := spas.Run(spas.Params{Rows: rows, NNZPerRow: spas.PaperNNZPerRow, Seed: 13}, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.Stream.Cycles), "sim-cycles")
	reportCoverage(b, func() error {
		_, err := spas.Run(spas.Params{Rows: rows, NNZPerRow: spas.PaperNNZPerRow, Seed: 13}, execConfig())
		return err
	})
}

func BenchmarkFig11dSPASSmall(b *testing.B) { benchSPAS(b, 2000) }
func BenchmarkFig11dSPASLarge(b *testing.B) { benchSPAS(b, 24000) }

// --- Ablation benches for the design choices DESIGN.md calls out ---

// benchFEMVariant runs streamFEM Euler-lin with mutated compiler and
// executor knobs, reporting simulated cycles for comparison against
// BenchmarkFig11aFEMEulerLin's default configuration.
func benchFEMVariant(b *testing.B, mut func(*compiler.Options, *exec.Config)) {
	b.Helper()
	p := fem.EulerLin
	p.Steps = 1
	var cycles uint64
	for i := 0; i < b.N; i++ {
		inst, err := fem.NewInstance(p)
		if err != nil {
			b.Fatal(err)
		}
		opt := compiler.DefaultOptions(svm.DefaultSRF(inst.M))
		e := execConfig()
		mut(&opt, &e)
		res, err := inst.RunStreamWith(e, opt)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkAblationDefault is the reference point for the ablations.
func BenchmarkAblationDefault(b *testing.B) {
	benchFEMVariant(b, func(*compiler.Options, *exec.Config) {})
}

// BenchmarkAblationNoDoubleBuffer disables buffer renaming: gathers
// serialise behind the kernels reading the single buffer.
func BenchmarkAblationNoDoubleBuffer(b *testing.B) {
	benchFEMVariant(b, func(o *compiler.Options, _ *exec.Config) { o.DoubleBuffer = false })
}

// BenchmarkAblationNoFusion disables kernel fusion (per-kernel compute
// tasks and dispatches).
func BenchmarkAblationNoFusion(b *testing.B) {
	benchFEMVariant(b, func(o *compiler.Options, _ *exec.Config) { o.FuseKernels = false })
}

// BenchmarkAblationPauseWait switches the work-queue wait policy to
// PAUSE (fast dispatch, sibling interference — §III-B.2's trade-off).
func BenchmarkAblationPauseWait(b *testing.B) {
	benchFEMVariant(b, func(_ *compiler.Options, e *exec.Config) { e.WaitPolicy = sim.PolicyPause })
}

// BenchmarkAblationOSWait uses OS descheduling (tens of thousands of
// cycles per wakeup).
func BenchmarkAblationOSWait(b *testing.B) {
	benchFEMVariant(b, func(_ *compiler.Options, e *exec.Config) { e.WaitPolicy = sim.PolicyOS })
}

// BenchmarkAblationTemporalGathers turns off the non-temporal hints:
// gather/scatter traffic competes with the SRF for cache space.
func BenchmarkAblationTemporalGathers(b *testing.B) {
	benchFEMVariant(b, func(o *compiler.Options, _ *exec.Config) {
		ops := svm.DefaultOps()
		ops.Hint = sim.HintNone
		o.Ops = ops
	})
}

// BenchmarkAblationSingleContext runs the whole schedule on one
// hardware context (no thread-level overlap).
func BenchmarkAblationSingleContext(b *testing.B) {
	p := fem.EulerLin
	p.Steps = 1
	var cycles uint64
	for i := 0; i < b.N; i++ {
		inst, err := fem.NewInstance(p)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := compiler.Compile(inst.Graph(), compiler.DefaultOptions(svm.DefaultSRF(inst.M)))
		if err != nil {
			b.Fatal(err)
		}
		r, err := exec.RunStream1Ctx(inst.M, prog, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// --- Future-machine experiments (§V-A / §VI) ---
//
// The paper closes by arguing that modest micro-architecture changes —
// more TLB mapping above all — would "substantially improve the
// performance of stream programs". sim.ImprovedStream encodes that
// hypothetical machine; these benchmarks measure the paper's claim.

// BenchmarkFutureMachineGATSCAT compares GAT-SCAT-COMP's stream version
// on the improved machine against the 2005 baseline.
func BenchmarkFutureMachineGATSCAT(b *testing.B) {
	improved := sim.ImprovedStream()
	var base, future micro.Result
	for i := 0; i < b.N; i++ {
		var err error
		base, err = micro.RunGATSCAT(micro.Params{N: 100000, Comp: 2, Seed: 9}, execConfig())
		if err != nil {
			b.Fatal(err)
		}
		future, err = micro.RunGATSCAT(micro.Params{N: 100000, Comp: 2, Seed: 9, Machine: &improved}, execConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.Stream.Cycles)/float64(future.Stream.Cycles), "stream-gain")
	b.ReportMetric(base.Speedup, "speedup-2005")
	b.ReportMetric(future.Speedup, "speedup-future")
}

// BenchmarkFutureMachineRandomGather measures the random-access
// bandwidth gain from the larger, faster TLB (the paper's specific
// bottleneck: "missing in the TLB is the dominant factor"). The gain
// appears on the demand-miss path; software-prefetched non-temporal
// streams already hide the walk behind bus occupancy in this model.
func BenchmarkFutureMachineRandomGather(b *testing.B) {
	var base, future float64
	for i := 0; i < b.N; i++ {
		p := bench.BandwidthProbe{RecordBytes: 128, Random: true, TotalBytes: 8 << 20}
		base = p.Run()
		future = p.RunOn(sim.ImprovedStream())
	}
	b.ReportMetric(base, "GB/s-2005")
	b.ReportMetric(future, "GB/s-future")
	b.ReportMetric(future/base, "gain")
}

// BenchmarkMultiNodeStencil runs the multi-node SVM extension (the
// paper's footnote-2 execution model): a distributed stencil on 1, 2
// and 4 nodes connected by an InfiniBand-class link, reporting strong
// scaling.
func BenchmarkMultiNodeStencil(b *testing.B) {
	var pts []cluster.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = cluster.StrongScaling(cluster.DefaultLink(), 4, func(nodes int) ([]cluster.Program, error) {
			st, err := cluster.NewStencil1D(65536, nodes, cluster.DefaultLink())
			if err != nil {
				return nil, err
			}
			return st.NodePrograms(), nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) == 4 {
		b.ReportMetric(pts[1].Speedup, "speedup-2node")
		b.ReportMetric(pts[3].Speedup, "speedup-4node")
	}
}
