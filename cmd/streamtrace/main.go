// Command streamtrace runs one application or micro-benchmark under
// both programming styles and reports where the stream version's
// cycles went: a Perfetto-loadable trace of every task on every
// hardware context, a text Gantt chart, and a metrics report with
// stall attribution.
//
// Usage:
//
//	streamtrace -list
//	streamtrace -app gatscat -n 200000 -comp 1 -o trace.json
//	streamtrace -app ldst -nodouble        # serialised-pipeline ablation
//	streamtrace -app fem
//	streamtrace -events streamd.jsonl.events   # pretty-print a streamd event log
//	streamtrace -trend BENCH_history.jsonl     # per-experiment ledger trends with anomaly flags
//
// Open the JSON at https://ui.perfetto.dev (or chrome://tracing): track
// ctx0 is the control+compute thread, ctx1 the memory thread, with a
// work-queue depth counter underneath.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"streamgpp/internal/advisor"
	"streamgpp/internal/apps"
	"streamgpp/internal/covreport"
	"streamgpp/internal/critpath"
	"streamgpp/internal/exec"
	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/streamd"
)

// printEvents renders a streamd lifecycle event log as a table, one
// row per event, with per-event millisecond offsets from server start.
// A torn final line — the crash artifact the log's readers tolerate —
// is noted, not fatal.
func printEvents(w io.Writer, path string) error {
	events, stats, err := streamd.ReadEvents(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-5s %12s  %-10s  %-8s  %-13s  %-9s  %-5s  %s\n",
		"SEQ", "T_MS", "JOB", "TYPE", "APP", "STATE", "CACHE", "DETAIL")
	for _, e := range events {
		var detail []string
		if e.Retries > 0 {
			detail = append(detail, fmt.Sprintf("retries=%d", e.Retries))
		}
		if e.Error != nil {
			detail = append(detail, e.Error.Message)
		}
		fmt.Fprintf(w, "%-5d %12.3f  %-10s  %-8s  %-13s  %-9s  %-5s  %s\n",
			e.Seq, float64(e.TNs)/1e6, e.Job, e.Type, e.App, e.State, e.Cache,
			strings.Join(detail, " "))
	}
	fmt.Fprintf(w, "%d events over %d jobs\n", stats.Events, stats.Jobs)
	if stats.TornTail {
		fmt.Fprintf(w, "note: torn final line %d skipped (writer killed mid-append; repaired on next streamd start)\n", stats.TornLine)
	}
	return nil
}

// printTrend rolls a run ledger up into per-experiment trend rows —
// wall time, simulated throughput and fast-path coverage against
// their run history — flagging the latest run when it sits outside
// the same robust band CompareLedgers uses (MAD-scaled, with a
// relative floor so quiet histories don't alarm on noise).
func printTrend(w io.Writer, path string, asJSON bool) error {
	entries, err := obs.ReadLedger(path)
	if err != nil {
		return err
	}
	rows := obs.TrendReport(entries, obs.DefaultTrendOptions())
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	obs.RenderTrend(w, rows)
	return nil
}

// mergeMetrics folds extra flat metric keys into a flattened snapshot.
func mergeMetrics(m, extra map[string]float64) map[string]float64 {
	if m == nil {
		m = map[string]float64{}
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

func main() {
	app := flag.String("app", "gatscat", "application: "+strings.Join(apps.Keys(), ", "))
	n := flag.Int("n", 0, "problem size: elements per array (micro-benchmarks), elements (neo), rows (spas); 0 = the app's default")
	comp := flag.Int("comp", 1, "COMP knob (micro-benchmarks)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "write Perfetto trace_event JSON to this file")
	nodouble := flag.Bool("nodouble", false, "disable double buffering (micro-benchmarks; serialises the pipeline)")
	width := flag.Int("width", 100, "Gantt chart width in columns")
	list := flag.Bool("list", false, "list applications and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	faultSpec := flag.String("fault", "", "fault injection spec: kind:rate[,kind:rate...] (kinds: "+
		"latency_spike, dropped_wakeup, dropped_dep_clear, enqueue_full, kernel_fault, poisoned_strip; or all:rate)")
	faultSeed := flag.Uint64("faultseed", 1, "fault schedule seed (same seed replays the identical fault trace)")
	sample := flag.Uint64("sample", obs.DefaultSampleInterval,
		"timeline sampling window in simulated cycles (0 disables the timeline sampler)")
	ledgerPath := flag.String("ledger", "", "append this run's summary as one JSONL entry to the run ledger at this path")
	critflag := flag.Bool("critpath", false,
		"reconstruct the stream run's task DAG and report its exact critical path, plus the advisor calibration against it")
	topk := flag.Int("topk", 5, "longest individual critical-path segments to list with -critpath")
	jsonOut := flag.Bool("json", false,
		"emit one machine-readable JSON object (stall report + critical-path summary, ledger flatten conventions) instead of the text report")
	covflag := flag.Bool("coverage", false,
		"report fast-path coverage (which accesses the bulk fast path served, and why the rest bailed) and per-level bandwidth attribution")
	topbails := flag.Int("topbails", 0,
		"with -coverage, also rank the top N bail reasons by estimated lost cycles (bails × mean per-access cost)")
	eventsPath := flag.String("events", "",
		"pretty-print the streamd job lifecycle event log (JSONL) at this path and exit")
	trendPath := flag.String("trend", "",
		"report per-experiment trends over the run ledger (JSONL) at this path and exit (honours -json)")
	flag.Parse()

	if *eventsPath != "" {
		if err := printEvents(os.Stdout, *eventsPath); err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *trendPath != "" {
		if err := printTrend(os.Stdout, *trendPath, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, a := range apps.All() {
			fmt.Printf("%-10s %-13s %s\n", a.Key, a.Name, a.Desc)
		}
		return
	}

	r, ok := apps.ByKey(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "streamtrace: unknown app %q (use -list)\n", *app)
		os.Exit(2)
	}
	if *nodouble && !r.Micro {
		fmt.Fprintln(os.Stderr, "streamtrace: -nodouble only applies to the micro-benchmarks")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			}
		}()
	}

	// Observe both of the app's machines; only the stream run touches
	// the SRF, the work queue and the bulk ops, so the registry reads as
	// the stream version's story.
	reg := obs.NewRegistry()

	tr := &exec.Trace{}
	ecfg := exec.Defaults()
	ecfg.Trace = tr

	// Only stream-side activity samples into the timeline (bulk memory
	// pipes, SRF, the executors), so the regular baseline leaves no
	// points and the series stay monotone in the stream machine's
	// virtual time.
	var tl *obs.Timeline
	if *sample > 0 {
		tl = obs.NewTimeline(*sample)
		ecfg.Timeline = tl
	}

	// Fault injection: both styles' machines share one seeded injector,
	// so the run's fault schedule replays from -faultseed.
	var inj *fault.Injector
	if *faultSpec != "" {
		fcfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(2)
		}
		fcfg.Seed = *faultSeed
		inj = fault.New(fcfg)
		ecfg.Fault = inj
	}

	p := r.Defaults
	if *n > 0 {
		p.N = *n
	}
	p.Comp, p.Seed, p.NoDoubleBuffer, p.Observer = *comp, *seed, *nodouble, reg

	t0 := time.Now()
	res, err := r.Run(p, ecfg)
	name, regular, stream, graph := res.Name, res.Regular, res.Stream, res.Graph
	wallNs := time.Since(t0).Nanoseconds()
	if err != nil {
		// A *RunError renders the failing task, strip, phase, cycle and
		// any queue diagnosis; the fault trace names what was injected.
		fmt.Fprintf(os.Stderr, "streamtrace: %s: %v\n", *app, err)
		if inj != nil && inj.Total() > 0 {
			fmt.Fprintf(os.Stderr, "fault trace (replay with -faultseed %d):\n%s", *faultSeed, inj.TraceString())
		}
		os.Exit(1)
	}

	// The critical path is reconstructed from the task trace whenever
	// anything downstream wants it: the -critpath report, the -json
	// summary, the ledger entry's critpath metrics, or the Perfetto
	// export's highlighted track.
	var cpath *critpath.Path
	var cgraph *critpath.Graph
	if *critflag || *jsonOut || *ledgerPath != "" || *out != "" {
		cg, err := critpath.Build(tr, stream.Cycles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: critical path: %v\n", err)
			os.Exit(1)
		}
		cgraph = cg
		cpath = cg.CriticalPath()
	}

	// calibration compares the advisor's static estimate with the
	// measured run. The metrics registry observed both styles, but only
	// the stream run drives the bulk operations, so the svm payload
	// counters read as stream-only.
	var calib *advisor.Calibration
	if cpath != nil && graph != nil {
		rep, aerr := advisor.Analyze(graph, sim.PentiumD8300())
		if aerr != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: advisor: %v\n", aerr)
			os.Exit(1)
		}
		by := cpath.ByKind()
		// The advisor predicts one pass over the graph; multi-step apps
		// (streamFEM timesteps, streamCDP solver rounds) execute the
		// same schedule Rounds times, so the whole-run payload counters
		// are normalised to per-round before comparing. Rounds are
		// homogeneous, so the division is exact and the ratio must
		// still come out 1.0.
		rounds := uint64(cgraph.Rounds)
		calib = rep.Calibrate(advisor.Measured{
			GatherBytes:  reg.Counter("svm.gather.array_bytes").Value() / rounds,
			ScatterBytes: reg.Counter("svm.scatter.array_bytes").Value() / rounds,
			PathGather:   by[critpath.SegGather],
			PathKernel:   by[critpath.SegKernel],
			PathScatter:  by[critpath.SegScatter],
			PathWait:     by[critpath.SegDepWait] + by[critpath.SegQueueWait] + by[critpath.SegRecovery],
			PathLength:   cpath.Length,
		})
	}

	flat := obs.FlattenSnapshot(reg.Snapshot())
	var cov *covreport.Report
	if *covflag || *jsonOut || *topbails > 0 {
		c := covreport.New(flat, stream.Cycles, sim.PentiumD8300())
		cov = &c
		if cpath != nil && cov.DominantBail != "" {
			// Dep-wait segments name why the work they waited on was
			// slow, in both the text report and the Perfetto export.
			cpath.AnnotateDepWaits(cov.DominantBail)
		}
	}

	if *jsonOut {
		report := struct {
			App               string               `json:"app"`
			Name              string               `json:"name"`
			RegularCycles     uint64               `json:"regular_cycles"`
			StreamCycles      uint64               `json:"stream_cycles"`
			Speedup           float64              `json:"speedup"`
			OverlapEfficiency float64              `json:"overlap_efficiency"`
			Stalls            exec.StallReport     `json:"stalls"`
			Critpath          map[string]float64   `json:"critpath"`
			CritpathBound     string               `json:"critpath_bound"`
			CritpathByTask    map[string]uint64    `json:"critpath_by_task"`
			Calibration       *advisor.Calibration `json:"calibration,omitempty"`
			Coverage          *covreport.Report    `json:"coverage,omitempty"`
			Metrics           map[string]float64   `json:"metrics"`
		}{
			App: *app, Name: name,
			RegularCycles: regular.Cycles, StreamCycles: stream.Cycles,
			Speedup:           exec.Speedup(regular, stream),
			OverlapEfficiency: tr.OverlapEfficiency(),
			Stalls:            exec.NewStallReport(stream),
			Critpath:          cpath.Flatten(),
			CritpathBound:     cpath.Bound(),
			CritpathByTask:    cpath.ByTask(),
			Calibration:       calib,
			Coverage:          cov,
			Metrics:           flat,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("%s\n", name)
		fmt.Printf("  regular: %12d cycles\n", regular.Cycles)
		fmt.Printf("  stream:  %12d cycles   (speedup %.2fx)\n",
			stream.Cycles, exec.Speedup(regular, stream))
		fmt.Printf("  gather/kernel overlap efficiency: %.2f\n\n", tr.OverlapEfficiency())

		fmt.Println("Stream timeline:")
		tr.Gantt(os.Stdout, *width)
		fmt.Println()
		tr.Summary(os.Stdout)
		fmt.Println()

		fmt.Println("Stall attribution (stream run):")
		exec.NewStallReport(stream).Render(os.Stdout)
		fmt.Println()

		if *critflag {
			fmt.Println("Critical path (stream run):")
			cpath.Render(os.Stdout, *topk)
			fmt.Println()
			if calib != nil {
				fmt.Println("Advisor calibration (static estimate vs this run):")
				calib.Render(os.Stdout)
				fmt.Println()
			}
		}

		if cov != nil {
			fmt.Println("Fast-path coverage and bandwidth (stream run):")
			cov.Render(os.Stdout)
			if *topbails > 0 {
				cov.RenderTopBails(os.Stdout, *topbails)
			}
			fmt.Println()
		}

		if inj != nil {
			fmt.Println("Fault injection:")
			fmt.Printf("  %s\n", stream.Recovery)
			if inj.Total() > 0 {
				fmt.Printf("  trace (replay with -faultseed %d):\n", *faultSeed)
				for _, line := range strings.Split(strings.TrimRight(inj.TraceString(), "\n"), "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
			fmt.Println()
		}

		if tl != nil {
			fmt.Println("Timeline (cycle-windowed samples, stream run):")
			tl.Render(os.Stdout)
			fmt.Println()
		}

		fmt.Println("Metrics:")
		reg.Render(os.Stdout)
	}

	if *ledgerPath != "" {
		simCycles := regular.Cycles + stream.Cycles
		entry := obs.LedgerEntry{
			Schema:     obs.LedgerSchema,
			Time:       time.Now().UTC().Format(time.RFC3339),
			Experiment: "streamtrace/" + *app,
			Config:     fmt.Sprintf("n=%d comp=%d seed=%d nodouble=%v", p.N, *comp, *seed, *nodouble),
			ConfigHash: obs.Hash(fmt.Sprintf("%d/%d/%d/%v", p.N, *comp, *seed, *nodouble)),
			FastPath:   true,
			WallNs:     wallNs,
			SimCycles:  simCycles,
			Metrics:    mergeMetrics(obs.FlattenSnapshot(reg.Snapshot()), cpath.Flatten()),
			Recovery: map[string]uint64{
				"faults_injected":   stream.Recovery.FaultsInjected,
				"retries":           stream.Recovery.Retries,
				"scrubbed_deps":     stream.Recovery.ScrubbedDeps,
				"wakeup_timeouts":   stream.Recovery.WakeupTimeouts,
				"watchdog_timeouts": stream.Recovery.WatchdogTimeouts,
			},
			Source: "streamtrace",
		}
		if wallNs > 0 {
			entry.SimCyclesPerSec = float64(simCycles) / (float64(wallNs) / 1e9)
		}
		if inj != nil {
			entry.FaultTraceHash = obs.Hash(inj.TraceString())
		}
		if err := obs.AppendLedger(*ledgerPath, entry); err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nappended ledger entry to %s\n", *ledgerPath)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		cyclesPerUsec := sim.PentiumD8300().FreqHz / 1e6
		// The critical path renders as its own highlighted track above
		// the per-context tracks, with flow arrows joining dependent
		// tasks across contexts.
		tracks := map[int]string{critpath.PerfettoTrack: critpath.PerfettoTrackName}
		if err := tr.WritePerfettoExtra(f, name, cyclesPerUsec, tl, tracks, cpath.Spans(critpath.PerfettoTrack)); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "streamtrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s — open at https://ui.perfetto.dev\n", *out)
	}
}
