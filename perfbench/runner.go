package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// sliceLen is the target length of one slice of a run. A run alternates
// sim and service slices, so that each kind of measurement is spread
// over the whole run rather than over one part of it, and slow drift
// in the machine's speed affects every metric alike.
const sliceLen = 6 * time.Second

// simShare is the share of a run's seconds spent in sim slices.
const simShare = 0.6

// minPasses is the fewest sim passes a run makes, however short.
const minPasses = 3

// nominalHitRate is client H's throughput on the reference machine, in
// jobs per second. A service slice runs a fixed number of H's jobs, set
// from this rate so that H's part lasts about hitShare of the slice.
// The count is fixed rather than the time because streamd keeps every
// finished job, so the heap a slice grows to follows H's job count.
const nominalHitRate = 8000

// hitShare is the part of a service slice given to client H; client M
// gets the rest. M's jobs are long and few, and its figures need the
// larger part.
const hitShare = 1.0 / 3

// Window sizes, in jobs, of client H's statistics: its median and
// throughput are those of its fastest window of hitWindow jobs, its
// tail is measured in windows of tailWindow jobs.
const (
	hitWindow  = 100
	tailWindow = 2000
)

// setupsPerSlice is how often a service slice sets streamd up; all but
// the last set-up are closed at once. Set-up is short, and one sample a
// slice gives too few for a steady median of streamd.setup_s.
const setupsPerSlice = 3

// passRun is one pass over a workload's sim apps.
type passRun struct {
	wall                     time.Duration // excluding the app constructors
	setup                    time.Duration // in the app constructors
	stages, setups           opTimes       // wall and setup split by app and stage
	regular, stream          uint64        // simulated cycles, all apps
	stagedRegular, stagedStr uint64        // simulated cycles of the apps run stage by stage
	counts                   simCounts     // traced passes only
	self                     map[string]time.Duration
}

// simPhase drives and records a run's sim passes.
type simPhase struct {
	apps              []simApp
	seed              int64
	golden            map[string][2]uint64 // nil when none is recorded for the seed
	first             map[string][2]uint64 // each app's cycles in its first pass
	tr                *tracer
	elapsed           time.Duration
	untraced, traced  []passRun
	attempted, failed int
}

// runUntil runs passes until the phase has run for target in total.
// On a traced run every other pass is traced, so that the untraced
// passes between them measure the tracing overhead.
func (ph *simPhase) runUntil(target time.Duration, logf func(string, ...any)) {
	for ph.elapsed < target {
		t0 := time.Now()
		pass := len(ph.untraced) + len(ph.traced)
		traced := ph.tr != nil && pass%2 == 0
		pr := ph.pass(traced, logf)
		if traced {
			ph.traced = append(ph.traced, pr)
		} else {
			ph.untraced = append(ph.untraced, pr)
		}
		ph.elapsed += time.Since(t0)
	}
}

func (ph *simPhase) pass(traced bool, logf func(string, ...any)) passRun {
	var pr passRun
	tr := ph.tr
	if !traced {
		tr = nil
	}
	mark := tr.mark()
	// Each pass starts from a collected heap, so that garbage left by
	// the slice before it does not decide when its collections run.
	runtime.GC()
	t0 := time.Now()
	for _, a := range ph.apps {
		ac := &appCtx{seed: ph.seed, ecfg: exec.Defaults(), tr: tr, trace: tr.newTrace()}
		if traced {
			ac.reg = obs.NewRegistry()
			sim.SetDefaultObserver(ac.reg)
		}
		ac.root = tr.begin("bench.app", ac.trace, 0)
		r, err := a.run(ac)
		tr.end(ac.root)
		for _, st := range r.setups {
			pr.setups.add(a.name+"/"+st.name, st.d)
		}
		for _, st := range r.stages {
			pr.stages.add(a.name+"/"+st.name, st.d)
		}
		sim.SetDefaultObserver(nil)
		ph.attempted++
		pr.setup += r.setup
		if err == nil {
			err = checkCycles(a.name, r, ph.golden, ph.first)
		}
		if err != nil {
			ph.failed++
			logf("%s: %v", a.name, err)
			continue
		}
		pr.regular += r.regular
		pr.stream += r.stream
		if r.staged {
			pr.stagedRegular += r.regular
			pr.stagedStr += r.stream
		}
		pr.counts.add(r.counts)
	}
	pr.wall = time.Since(t0) - pr.setup
	if traced {
		pr.self = tr.selfTimes(mark)
	}
	return pr
}

// checkCycles compares an app's simulated cycles with the recorded
// golden values, when there are any for this seed, and with the app's
// first pass of this run: the simulator is deterministic.
func checkCycles(app string, r appRun, golden, first map[string][2]uint64) error {
	got := [2]uint64{r.regular, r.stream}
	if golden != nil {
		if w, ok := golden[app]; !ok {
			return fmt.Errorf("no golden cycles recorded")
		} else if got != w {
			return fmt.Errorf("regular/stream cycles %d/%d, golden %d/%d", got[0], got[1], w[0], w[1])
		}
	}
	if f, ok := first[app]; ok && f != got {
		return fmt.Errorf("regular/stream cycles %d/%d, first pass %d/%d", got[0], got[1], f[0], f[1])
	}
	first[app] = got
	return nil
}

// servicePhase drives and records a run's service slices. Each slice
// sets up a fresh streamd setupsPerSlice times and drives the last.
type servicePhase struct {
	w                    workload
	o                    options
	tmp                  string
	tr                   *tracer
	heap                 *heapSampler
	src                  *missSource
	hit, miss            clientStats
	heapPerJob           []float64 // live heap the server retains per job, bytes, per slice
	queueWait, runMs     obs.MetricValue
	cacheHits, cacheMiss float64
}

// runSlice runs one slice in which client H makes hits jobs and client
// M then submits jobs for missTime.
func (sp *servicePhase) runSlice(ctx context.Context, hits int, missTime time.Duration, logf func(string, ...any)) error {
	var svc *service
	for i := 0; i < setupsPerSlice; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return fmt.Errorf("stopping streamd: %w", err)
			}
		}
		var err error
		svc, err = startService(ctx, sp.tr, sp.tmp, sp.w.missApps, max(hitN/sp.o.div, 1), sp.o.seed)
		if err != nil {
			return fmt.Errorf("setting up streamd: %w", err)
		}
	}

	// The clients' own records are subtracted from the heap growth, so
	// what is left is what the server keeps per job.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	own0 := sp.tr.heldBytes() + 8*(cap(sp.hit.latencies)+cap(sp.miss.latencies))
	jobs0 := len(sp.hit.latencies) + len(sp.miss.latencies)
	snap0 := svc.srv.MetricsSnapshot()

	svc.runClients(ctx, sp.tr, hits, missTime, &sp.hit, &sp.miss, sp.src, logf)

	delta := svc.srv.MetricsSnapshot().Delta(snap0)
	for _, h := range []struct {
		acc  *obs.MetricValue
		name string
	}{{&sp.queueWait, "streamd.queue_wait_ms"}, {&sp.runMs, "streamd.run_ms"}} {
		h.acc.Kind = obs.KindHistogram
		h.acc.Count += delta[h.name].Count
		h.acc.Sum += delta[h.name].Sum
	}
	sp.cacheHits += delta["streamd.cache.hits"].Value
	sp.cacheMiss += delta["streamd.cache.misses"].Value
	runtime.GC()
	runtime.ReadMemStats(&m1)
	sp.heap.sample() // the peak is reached now, with every job of the slice retained
	own := sp.tr.heldBytes() + 8*(cap(sp.hit.latencies)+cap(sp.miss.latencies)) - own0
	if jobs := len(sp.hit.latencies) + len(sp.miss.latencies) - jobs0; jobs > 0 {
		sp.heapPerJob = append(sp.heapPerJob, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc)-float64(own))/float64(jobs))
	}
	if err := svc.close(); err != nil {
		return fmt.Errorf("stopping streamd: %w", err)
	}
	return nil
}

// heldBytes is the memory the span buffer holds.
func (t *tracer) heldBytes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.spans) * int(unsafe.Sizeof(span{}))
}

// runWorkload runs the workload's slices and reports.
func runWorkload(ctx context.Context, o options, golden goldenTable, tmp string, logf func(string, ...any)) (report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return report{}, err
	}
	if o.seconds <= 0 || o.div < 1 {
		return report{}, fmt.Errorf("need --seconds > 0 and --div ≥ 1")
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	heap := startHeapSampler()
	total := time.Duration(o.seconds * float64(time.Second))
	slices := max(int((total+sliceLen/2)/sliceLen), 1)
	simTotal := time.Duration(float64(total) * simShare)
	serviceSlice := (total - simTotal) / time.Duration(slices)
	hitsPerSlice := max(int(nominalHitRate*hitShare*serviceSlice.Seconds()), 1)
	missTime := time.Duration((1 - hitShare) * float64(serviceSlice))
	ph := &simPhase{apps: w.apps(o.seed, o.div), seed: o.seed, golden: golden.lookup(o.div, w.name, o.seed),
		first: map[string][2]uint64{}, tr: tr}
	if ph.golden == nil {
		logf("no golden cycles recorded for %s seed %d at --div %d: cycles are checked only pass against pass",
			w.name, o.seed, o.div)
	}
	sp := &servicePhase{w: w, o: o, tmp: tmp, tr: tr, heap: heap, src: newMissSource(w.missApps, max(missN/o.div, 1), o.seed)}
	for k := 1; k <= slices && err == nil; k++ {
		ph.runUntil(simTotal*time.Duration(k)/time.Duration(slices), logf)
		err = sp.runSlice(ctx, hitsPerSlice, missTime, logf)
	}
	// However short the run, make enough passes for medians, and on a
	// traced run at least one untraced pass to compare with.
	for err == nil && len(ph.untraced)+len(ph.traced) < minPasses {
		ph.runUntil(ph.elapsed+1, logf)
	}
	peakHeap := heap.stop()
	if err != nil {
		return report{}, err
	}
	if tr != nil {
		path := filepath.Join(o.out, "spans-"+w.name+".jsonl")
		if err := tr.writeJSONL(path); err != nil {
			return report{}, err
		}
		logf("spans written to %s", path)
	}

	rep := report{
		Attempted: ph.attempted + sp.hit.jobs + sp.miss.jobs,
		Failed:    ph.failed + sp.hit.failed + sp.miss.failed,
		Metrics:   map[string]metric{},
	}
	rep.Correct = rep.Failed == 0
	logf("%s seed %d: %d sim passes (%d traced), %d service slices, %d hit and %d miss jobs, %d of %d operations failed",
		w.name, o.seed, len(ph.untraced)+len(ph.traced), len(ph.traced), len(sp.hit.ends),
		len(sp.hit.latencies), len(sp.miss.latencies), rep.Failed, rep.Attempted)
	walls := make([]string, len(ph.untraced))
	for i, p := range ph.untraced {
		walls[i] = fmt.Sprintf("%.3f", p.wall.Seconds())
	}
	logf("untraced pass walls (s): %s", strings.Join(walls, " "))
	if len(ph.untraced) == 0 || len(sp.hit.latencies) == 0 {
		return report{}, fmt.Errorf("nothing measured: every operation of a phase failed")
	}
	fastest := sp.miss.fastest()
	for _, app := range w.missApps {
		if _, ok := fastest[app]; !ok {
			return report{}, fmt.Errorf("nothing measured: every miss of %s failed", app)
		}
	}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	if !o.trace {
		endToEnd(put, w, ph, sp, peakHeap)
	} else {
		perLayer(put, ph, sp)
	}
	return rep, nil
}

// endToEnd reports the metrics a user of the system sees. The host is
// shared, and its speed changes by up to 2× from one second to the
// next, as other tenants come and go. So every timing is taken from
// the run's fastest repeats of identical work, which measure the
// program, rather than from its medians, which measure how busy the
// host was.
func endToEnd(put func(string, float64, string), w workload, ph *simPhase, sp *servicePhase, peakHeap uint64) {
	var stages, setups []opTimes
	for _, p := range ph.untraced {
		stages = append(stages, p.stages)
		setups = append(setups, p.setups)
	}
	wall := sumOfFastest(stages)
	put("setup_s", sumOfFastest(setups), "s")
	put("wall_s", wall, "s")
	// Every pass simulates the same cycles; checkCycles fails any that
	// does not.
	put("sim_cycles_per_s", float64(ph.untraced[0].regular+ph.untraced[0].stream)/wall, "1/s")
	put("peak_heap_mb", float64(peakHeap)/(1<<20), "MiB")

	// H's median and throughput are those of its fastest window. Its
	// p99 is that median times the median over windows of each
	// window's p99/p50: a ratio that does not depend on the host's
	// speed while the window lasts.
	hitP50, hitRate := math.Inf(1), 0.0
	for _, win := range sp.hit.windows(hitWindow) {
		hitP50 = min(hitP50, median(win))
		hitRate = max(hitRate, float64(len(win))/(sum(win)/1000))
	}
	var tails []float64
	for _, win := range sp.hit.windows(tailWindow) {
		tails = append(tails, percentile(win, 0.99)/median(win))
	}
	put("hit_p50_ms", hitP50, "ms")
	put("hit_p99_ms", hitP50*median(tails), "ms")
	put("hit_jobs_per_s", hitRate, "1/s")

	// M's jobs differ by app, so its figures are those of one round of
	// its mix with each app's job at that app's fastest.
	fastest := sp.miss.fastest()
	var round []float64
	for _, app := range w.missApps {
		round = append(round, fastest[app])
	}
	put("miss_p50_ms", percentile(round, 0.5), "ms")
	put("miss_p90_ms", percentile(round, 0.9), "ms")
	put("miss_jobs_per_s", float64(len(round))/(sum(round)/1000), "1/s")
}

// perLayer reports the per-layer metrics of a traced run: medians over
// the traced passes of each layer's self time, the layer counts of one
// pass, and the service layers' latencies and counters.
func perLayer(put func(string, float64, string), ph *simPhase, sp *servicePhase) {
	perPass := func(f func(p passRun) float64) float64 {
		var xs []float64
		for _, p := range ph.traced {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	selfS := func(name string) float64 { return perPass(func(p passRun) float64 { return p.self[name].Seconds() }) }
	nsPerKcycle := func(name string, cycles func(passRun) uint64) float64 {
		return perPass(func(p passRun) float64 {
			return float64(p.self[name].Nanoseconds()) / (float64(max(cycles(p), 1)) / 1000)
		})
	}
	put("apps.setup_s", selfS("apps.setup"), "s")
	put("apps.graph_s", selfS("apps.graph"), "s")
	put("apps.micro_run_s", selfS("apps.micro_run"), "s")
	put("bench.check_s", selfS("bench.app"), "s")
	put("compiler.compile_s", selfS("compiler.compile"), "s")
	put("exec.regular_s", selfS("exec.regular"), "s")
	put("exec.regular_ns_per_kcycle", nsPerKcycle("exec.regular", func(p passRun) uint64 { return p.stagedRegular }), "ns/kcycle")
	put("exec.stream_s", selfS("exec.stream"), "s")
	put("exec.stream_ns_per_kcycle", nsPerKcycle("exec.stream", func(p passRun) uint64 { return p.stagedStr }), "ns/kcycle")

	c := ph.traced[0].counts
	put("sim.fastpath_pct", 100*float64(c.fast)/float64(max(c.fast+c.slow, 1)), "%")
	put("sim.host_ns_per_access", perPass(func(p passRun) float64 {
		return float64(p.wall.Nanoseconds()) / float64(max(p.counts.accesses, 1))
	}), "ns")
	put("sim.mem.accesses", float64(c.accesses), "count")
	put("sim.tlb.misses", float64(c.tlbMisses), "count")
	put("sim.bus.bytes", float64(c.busBytes), "B")
	put("svm.gather.elems", float64(c.gatherElems), "count")
	put("svm.gather.indexed_elems", float64(c.gatherIndexed), "count")
	put("svm.scatter.elems", float64(c.scatterElems), "count")
	put("wq.enqueued", float64(c.wqEnqueued), "count")
	put("sim.regular_cycles", float64(ph.traced[0].regular), "cycles")
	put("sim.stream_cycles", float64(ph.traced[0].stream), "cycles")
	var traced, untraced []float64
	for _, p := range ph.traced {
		traced = append(traced, p.wall.Seconds())
	}
	for _, p := range ph.untraced {
		untraced = append(untraced, p.wall.Seconds())
	}
	put("trace.overhead_pct", 100*(median(traced)/median(untraced)-1), "%")

	const nsPerMs = float64(time.Millisecond)
	put("streamd.setup_s", median(sp.tr.durations(0, "streamd.setup"))/float64(time.Second), "s")
	put("http.submit_ms", median(sp.tr.durations(0, "http.hit_submit"))/nsPerMs, "ms")
	put("http.hit_result_ms", median(sp.tr.durations(0, "http.hit_result"))/nsPerMs, "ms")
	put("http.miss_result_ms", median(sp.tr.durations(0, "http.miss_result"))/nsPerMs, "ms")
	put("streamd.queue_wait_ms", sp.queueWait.Mean(), "ms")
	put("streamd.run_ms", sp.runMs.Mean(), "ms")
	put("streamd.cache_hit_ratio", sp.cacheHits/max(sp.cacheHits+sp.cacheMiss, 1), "ratio")
	put("streamd.heap_bytes_per_job", median(sp.heapPerJob), "B/job")
}
