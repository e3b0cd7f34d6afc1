// Package exec runs compiled stream programs and regular-code
// baselines on the simulated machine, implementing the mappings of
// §III-B.2:
//
//   - RunStream2Ctx: the paper's chosen mapping for two hardware
//     contexts — one context runs the control thread interleaved with
//     the compute thread (control work overlaps the pipeline ends), the
//     other context is the memory thread driving bulk gathers and
//     scatters. The threads communicate through the distributed work
//     queue and idle with a configurable wait policy (MONITOR/MWAIT by
//     default, as the paper adopted).
//   - RunStream1Ctx: the single-context fallback — the Gather, Kernel
//     and Scatter stages software-pipelined on one thread.
//   - RunRegular: the conventional-code baseline — interleaved
//     load/compute/store loops with hardware prefetching and a bounded
//     out-of-order miss window.
package exec

import (
	"context"
	"fmt"

	"streamgpp/internal/compiler"
	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
	"streamgpp/internal/wq"
)

// Config tunes the executors.
type Config struct {
	// WaitPolicy is how idle threads wait on the work queue.
	WaitPolicy sim.WaitPolicy
	// QueueCapacity bounds in-flight tasks (the paper uses 64 so
	// dependence bit-vectors stay cheap).
	QueueCapacity int
	// RegularMLP is the out-of-order miss window of the regular-code
	// baseline (independent misses the pipeline overlaps).
	RegularMLP int
	// RegularIssue is the per-access issue cost of regular code.
	RegularIssue uint64
	// RegularOverlapCycles is how much load-to-use latency the
	// out-of-order window hides: an iteration's computation depends on
	// its loads, and only this many cycles of that wait can overlap
	// with earlier work (~ROB depth ÷ issue rate on the Pentium 4).
	RegularOverlapCycles uint64
	// ControlOverheadCycles models the control thread's cost to
	// enqueue one task (dependence encoding plus the queue store).
	ControlOverheadCycles uint64
	// Trace, when non-nil, records every task execution (context,
	// kind, start/end cycles) for timeline analysis.
	Trace *Trace
	// RegularRefOps charges the regular baseline this many extra
	// compute ops per memory reference: the address generation, index
	// arithmetic and loop bookkeeping a scalar gather/scatter loop
	// executes around every access, which the stream version moves
	// into the bulk-copy engine on the other hardware context. This
	// term scales with references, not computation, so compute-bound
	// loops still converge to the kernel's cost.
	RegularRefOps int64

	// RetryLimit bounds how many times a strip's gather or kernel is
	// re-executed after an injected fault before the run aborts.
	// Gathers and kernels are idempotent (only scatters commit state),
	// so a re-run is safe. 0 disables retries: the first fault aborts.
	RetryLimit int
	// WatchdogCycles is the progress watchdog's budget: an idle
	// thread waits at most this many cycles before auditing the queue
	// (scrubbing stale dependence bits) and, after two consecutive
	// budgets without any completion, aborting with a deadlock
	// diagnosis. The watchdog is armed only on machines with a fault
	// injector, so fault-free timing is untouched.
	WatchdogCycles uint64
	// DegradeTo1Ctx falls back to the sequential single-context
	// schedule when the overlapped two-context run exhausts its
	// retries: output arrays are restored from a pre-run snapshot and
	// the whole program re-runs without thread-level overlap.
	DegradeTo1Ctx bool

	// Ctx, when non-nil, bounds the run in wall-clock time: it is
	// checked before every strip task execution and at the control
	// thread's scheduling loop, so a cancelled or expired context
	// aborts the run within one task's wall time with a structured
	// RunError (Op "cancel") wrapping ctx.Err(). Cancellation is
	// terminal — no retry, no 1-ctx degradation — and callers receive
	// no partial output (the Run* wrappers return a zero Result
	// alongside the error). This is what lets streamd impose per-job
	// deadlines that reach all the way down to the strip retrier.
	Ctx context.Context
	// Fault, when non-nil, is attached to the machine at Run* entry
	// (sim.Machine.SetFaultInjector). Because each run owns its
	// injector, concurrent runs (the parallel experiment runner,
	// streamd job workers) keep independent deterministic draw streams
	// and stay replayable from their seeds.
	Fault *fault.Injector
	// Timeline, when non-nil, is attached to the machine at Run* entry
	// (sim.Machine.SetTimeline) and samples the stream run's work-queue
	// depth, overlap, bandwidth, outstanding misses and SRF occupancy.
	// Sampling only reads state, so timing is unchanged.
	Timeline *obs.Timeline
	// ReferencePath, when set, switches the machine's bulk fast path
	// off at Run* entry (sim.Machine.SetFastPath(false)): every access
	// takes the per-access reference path. Simulated timing is
	// identical either way; only host speed and the coverage.* split
	// differ.
	ReferencePath bool

	// Progress, when non-nil, receives one ProgressFrame after every
	// completed stream task. The hook is host-side and clock-neutral:
	// it fires after the task's cycles are accounted and reads only
	// already-committed state, so timing is byte-identical with or
	// without it (see progress.go). The callback runs on the
	// simulating goroutine — keep it cheap and never block in it.
	Progress func(ProgressFrame)
}

// Defaults returns the evaluation configuration.
func Defaults() Config {
	return Config{
		WaitPolicy:            sim.PolicyMwait,
		QueueCapacity:         wq.DefaultCapacity,
		RegularMLP:            2,
		RegularIssue:          1,
		RegularOverlapCycles:  60,
		ControlOverheadCycles: 12,
		RegularRefOps:         2,
		RetryLimit:            3,
		WatchdogCycles:        1_500_000,
		DegradeTo1Ctx:         true,
	}
}

// Aborted returns a non-nil *RunError (as error) when cfg.Ctx is
// cancelled or expired — the stage-boundary check the app driver makes
// between the regular and stream phases.
func (cfg Config) Aborted() error {
	if cfg.Ctx == nil {
		return nil
	}
	if err := cfg.Ctx.Err(); err != nil {
		return &RunError{Op: "cancel", Phase: -1, Strip: -1, Err: err}
	}
	return nil
}

// attach applies the per-run machine options (Fault, Timeline,
// ReferencePath) to m. A field at its zero value leaves the machine as
// it is. Each option is read during the run, never at machine
// construction, so attaching it at run entry is equivalent to building
// the machine with it.
func attach(m *sim.Machine, cfg Config) {
	if cfg.Fault != nil {
		m.SetFaultInjector(cfg.Fault)
	}
	if cfg.Timeline != nil {
		m.SetTimeline(cfg.Timeline)
	}
	if cfg.ReferencePath {
		m.SetFastPath(false)
	}
}

// Result reports one execution.
type Result struct {
	Cycles uint64
	Run    sim.RunStats
	Queue  *wq.DWQ // post-run queue (for occupancy stats)
	// KindCycles accumulates context-local cycles spent executing tasks
	// of each wq.Kind (gather, kernel, scatter) — a profiling aid.
	KindCycles [3]uint64
	// Recovery accounts fault-injection and recovery activity (all
	// zeros on a machine without an injector).
	Recovery RecoverySummary
}

// stripRetrier re-executes a strip task after an injected fault,
// bounded by RetryLimit. Only gathers and kernels are fault sites —
// they are idempotent, so a re-run is safe; scatters commit
// (scatter-add is not idempotent) and are never injected or re-run.
type stripRetrier struct {
	inj      *fault.Injector
	limit    int
	rec      *RecoverySummary
	retryCtr *obs.Counter
	ts       *tlSampler // optional timeline sampler (nil-safe)
	ctx      context.Context
}

func newStripRetrier(m *sim.Machine, cfg Config, rec *RecoverySummary, ts *tlSampler) stripRetrier {
	sr := stripRetrier{inj: m.FaultInjector(), limit: cfg.RetryLimit, rec: rec, ts: ts, ctx: cfg.Ctx}
	if sr.inj != nil {
		if r := m.Observer(); r != nil {
			sr.retryCtr = r.Counter("exec.strip_retries")
		}
	}
	return sr
}

// run executes t, retrying while the injector faults it. A non-nil
// RunError means the retry budget is exhausted. lastStart is the start
// cycle of the final attempt; everything before it is recovery time.
func (sr stripRetrier) run(c *sim.CPU, t *wq.Task) (lastStart uint64, rerr *RunError) {
	// The per-task cancellation point: a cancelled run stops before the
	// next strip task rather than at some coarser boundary, so a
	// streamd deadline aborts within one task's wall time.
	if sr.ctx != nil {
		if err := sr.ctx.Err(); err != nil {
			return c.Now(), &RunError{Op: "cancel", Task: t.Name, Kind: t.Kind.String(),
				Phase: t.Phase, Strip: t.Strip, Ctx: c.ID(), Cycle: c.Now(), Err: err}
		}
	}
	attempts := 0
	for {
		lastStart = c.Now()
		t.Run(c)
		attempts++
		if sr.inj == nil {
			return lastStart, nil
		}
		var k fault.Kind
		switch t.Kind {
		case wq.Gather:
			k = fault.PoisonedStrip
		case wq.KernelRun:
			k = fault.KernelFault
		default:
			return lastStart, nil // scatters are the commit point: never injected
		}
		if !sr.inj.Roll(k, c.Now()) {
			return lastStart, nil
		}
		sr.inj.Annotate(t.Name)
		if attempts > sr.limit {
			return lastStart, &RunError{Op: "retry", Task: t.Name, Kind: t.Kind.String(),
				Phase: t.Phase, Strip: t.Strip, Ctx: c.ID(), Cycle: c.Now(),
				Attempts: attempts, Err: ErrRetriesExhausted}
		}
		sr.rec.Retries++
		if sr.retryCtr != nil {
			sr.retryCtr.Inc()
		}
		sr.ts.recoveryEvent(c.Now(), sr.rec)
	}
}

// arraySnapshot preserves the program's output arrays so an aborted
// run can be restarted from pristine state.
type arraySnapshot struct {
	arrs []*svm.Array
	data [][]float64
}

func snapshotOutputs(p *compiler.Program) *arraySnapshot {
	snap := &arraySnapshot{arrs: p.OutputArrays()}
	for _, a := range snap.arrs {
		snap.data = append(snap.data, a.CloneData())
	}
	return snap
}

func (s *arraySnapshot) restore() {
	for i, a := range s.arrs {
		a.RestoreData(s.data[i])
	}
}

// RunStream2Ctx executes the program on both hardware contexts.
// Context 0 time-multiplexes the control thread (enqueuing tasks) with
// the compute thread (kernels); context 1 is the memory thread.
//
// On a machine with a fault injector the run is guarded: faulted
// strips are retried (see stripRetrier), idle waits carry a progress
// watchdog, and if the overlapped schedule still cannot complete, the
// run degrades to the sequential single-context schedule from restored
// array state (Config.DegradeTo1Ctx). A non-nil error is always a
// *RunError naming the failing task, strip, phase and cycle.
func RunStream2Ctx(m *sim.Machine, p *compiler.Program, cfg Config) (Result, error) {
	attach(m, cfg)
	var snap *arraySnapshot
	if m.FaultInjector() != nil && cfg.DegradeTo1Ctx {
		snap = snapshotOutputs(p)
	}
	res, rerr := runStream2Attempt(m, p, cfg)
	if rerr == nil {
		return res, nil
	}
	if rerr.Cancelled() {
		// The caller's deadline or cancellation ended the run; the
		// sequential fallback would only run past the same deadline.
		// No partial output either way — callers discard Result on
		// error, and streamd never serves one.
		return res, rerr
	}
	if snap == nil {
		return res, rerr
	}
	// Graceful degradation: abandon thread-level overlap, restore the
	// committed state and re-run the whole schedule sequentially.
	snap.restore()
	if r := m.Observer(); r != nil {
		r.Counter("exec.degraded_runs").Inc()
	}
	aborted := res.Recovery
	res1, err := RunStream1Ctx(m, p, cfg)
	res1.Recovery.Accumulate(aborted)
	res1.Recovery.Degraded = true
	res1.Recovery.AbortedCycles = res.Cycles
	return res1, err
}

// runStream2Attempt is one guarded two-context execution.
func runStream2Attempt(m *sim.Machine, p *compiler.Program, cfg Config) (Result, *RunError) {
	q := wq.New(cfg.QueueCapacity)
	q.Obs = m.Observer()
	q.Fault = m.FaultInjector()
	// One notification cell covers both "new task enqueued" and "task
	// completed": either can unblock either thread, and MONITOR watches
	// a single address anyway.
	work := m.NewEvent()
	next := 0
	finished := false
	total := len(p.Tasks)
	if cfg.Trace != nil {
		// One event per task; a depth sample per completion plus one
		// per enqueue batch (bounded by the task count).
		cfg.Trace.Reserve(total, 2*total)
	}

	var kindCycles [3]uint64
	var rec RecoverySummary
	inj := m.FaultInjector()
	injBase := uint64(0)
	if inj != nil {
		injBase = inj.Total()
	}
	wkBase := m.WakeupTimeouts()
	ts := newTLSampler(m, p.Options.SRF)
	ca := newCovAttr(m)
	sr := newStripRetrier(m, cfg, &rec, ts)

	// rerr is the first abort. Setting it also flips finished, so both
	// threads' wait conditions unblock and their loops drain out.
	var rerr *RunError
	abort := func(e *RunError) {
		if rerr == nil {
			rerr = e
		}
		finished = true
	}

	// The progress watchdog is armed only under fault injection (the
	// budget changes nothing until it expires, and it can only expire
	// when an injected fault wedged the schedule), so fault-free runs
	// keep byte-identical timing.
	wdBudget := uint64(0)
	var wdCtr *obs.Counter
	if inj != nil {
		wdBudget = cfg.WatchdogCycles
		if r := m.Observer(); r != nil {
			wdCtr = r.Counter("exec.watchdog_timeouts")
		}
	}
	// newWatchdog returns a per-thread timeout handler: a barren
	// budget first audits the queue for stale dependence bits (lost
	// dependence-clears) and recovers them with Scrub; two consecutive
	// budgets with no completion at all abort with the structured
	// deadlock diagnosis from the dependence bit-vectors.
	newWatchdog := func() func(c *sim.CPU) {
		barren := 0
		var lastDone uint64
		return func(c *sim.CPU) {
			rec.WatchdogTimeouts++
			if wdCtr != nil {
				wdCtr.Inc()
			}
			ts.recoveryEvent(c.Now(), &rec)
			if n := q.Scrub(); n > 0 {
				rec.ScrubbedDeps += uint64(n)
				ts.recoveryEvent(c.Now(), &rec)
				barren = 0
				c.Signal(work) // readiness changed; wake the sibling
				return
			}
			if done := q.Completed(); done > lastDone {
				lastDone = done
				barren = 0
				return
			}
			barren++
			if barren >= 2 {
				abort(&RunError{Op: "watchdog", Ctx: c.ID(), Cycle: c.Now(),
					Diag: q.Diagnose(), Err: ErrWedged})
				c.Signal(work)
			}
		}
	}

	// tryRun claims and executes one ready task from the given queue,
	// returning whether it did any work.
	tryRun := func(c *sim.CPU, qid wq.QueueID) bool {
		slot, t, ok := q.NextReady(qid)
		if !ok {
			return false
		}
		before := c.Now()
		ts.taskStart(t.Kind, before)
		ca.taskStart(c.ID())
		runStart, e := sr.run(c, &t)
		if e != nil {
			ca.taskEnd(c.ID(), t.Kind, t.Phase)
			ts.taskEnd(t.Kind, c.Now(), q)
			abort(e)
			c.Signal(work)
			return false
		}
		kindCycles[t.Kind] += c.Now() - before
		ca.taskEnd(c.ID(), t.Kind, t.Phase)
		if cfg.Trace != nil {
			ev := TraceEvent{Name: t.Name, Kind: t.Kind, Ctx: c.ID(),
				Phase: t.Phase, Strip: t.Strip, Start: before, End: c.Now(),
				ID: t.ID, RunStart: runStart, Enqueue: before, Deps: t.Deps}
			if ad, ok := cfg.Trace.takeAdmission(t.ID); ok {
				ev.Enqueue, ev.Deps = ad.t, ad.deps
			}
			cfg.Trace.record(ev)
		}
		q.Complete(slot)
		ts.taskEnd(t.Kind, c.Now(), q)
		if cfg.Trace != nil {
			cfg.Trace.sample("wq depth", c.Now(), float64(q.InFlight()))
		}
		if cfg.Progress != nil {
			cfg.Progress(ProgressFrame{Done: int(q.Completed()), Total: total,
				Phase: t.Phase, Strip: t.Strip, Cycle: c.Now(), Retries: rec.Retries})
		}
		c.Signal(work)
		return true
	}

	// recordWait attributes one wait's cycles: tasks sat in our queue but
	// their dependences hadn't cleared (pipeline stall) versus the queue
	// being genuinely empty or full (starvation). The counters are
	// resolved once up front; waits are frequent enough that per-wait
	// name formatting and registry lookups show up in profiles.
	var waitCtr [2][2]*obs.Counter // [ctx][0=empty 1=dep]
	if r := m.Observer(); r != nil {
		for ctx := 0; ctx < 2; ctx++ {
			for i, reason := range [...]string{"empty", "dep"} {
				waitCtr[ctx][i] = r.Counter(fmt.Sprintf("exec.ctx%d.wait_cycles.%s", ctx, reason))
			}
		}
	}
	recordWait := func(c *sim.CPU, qid wq.QueueID, cycles uint64) {
		if waitCtr[0][0] == nil || cycles == 0 {
			return
		}
		reason := 0 // empty
		if q.PendingIn(qid) > 0 {
			reason = 1 // dep
		}
		waitCtr[c.ID()][reason].Add(cycles)
	}

	st := m.Run(
		// Context 0: control + compute.
		func(c *sim.CPU) {
			wd := newWatchdog()
			for rerr == nil && int(q.Completed()) < total {
				// Cancellation point for the scheduling loop itself, so a
				// run whose remaining work is all on the memory thread
				// still observes its deadline here.
				if cfg.Ctx != nil {
					if err := cfg.Ctx.Err(); err != nil {
						abort(&RunError{Op: "cancel", Phase: -1, Strip: -1,
							Ctx: c.ID(), Cycle: c.Now(), Err: err})
						c.Signal(work)
						break
					}
				}
				// Control part: enqueue as much of the schedule as fits.
				enqueued := false
				for next < total {
					if err := q.Enqueue(p.Tasks[next]); err != nil {
						if err == wq.ErrFull {
							// Genuine backpressure or an injected
							// transient failure: wait and retry.
							break
						}
						t := &p.Tasks[next]
						abort(&RunError{Op: "enqueue", Task: t.Name, Kind: t.Kind.String(),
							Phase: t.Phase, Strip: t.Strip, Ctx: c.ID(), Cycle: c.Now(), Err: err})
						break
					}
					if cfg.Trace != nil {
						// Admission provenance for the critical-path
						// profiler: when the task entered the queue and
						// which dependencies were still live (read back
						// from the slot bit-vector, so dependencies on
						// already-completed tasks are excluded).
						t := &p.Tasks[next]
						cfg.Trace.noteAdmission(t.ID, c.Now(), q.LiveDeps(t.ID))
					}
					c.Compute(int64(cfg.ControlOverheadCycles))
					next++
					enqueued = true
				}
				if rerr != nil {
					break
				}
				if enqueued {
					if cfg.Trace != nil {
						cfg.Trace.sample("wq depth", c.Now(), float64(q.InFlight()))
					}
					ts.enqueued(c.Now(), q)
					c.Signal(work)
				}
				// Compute part: run a ready kernel.
				if tryRun(c, wq.ComputeQueue) {
					continue
				}
				if rerr != nil || int(q.Completed()) >= total {
					break
				}
				// Nothing to do: wait for a completion to unblock a
				// kernel or free a slot.
				waited, timedOut := c.WaitBudget(work, cfg.WaitPolicy, wdBudget, func() bool {
					return q.ReadyIn(wq.ComputeQueue) > 0 ||
						(next < total && q.InFlight() < q.Capacity()) ||
						int(q.Completed()) >= total || rerr != nil
				})
				recordWait(c, wq.ComputeQueue, waited)
				if timedOut {
					wd(c)
				}
			}
			finished = true
			c.Signal(work)
		},
		// Context 1: memory thread.
		func(c *sim.CPU) {
			wd := newWatchdog()
			for rerr == nil {
				if tryRun(c, wq.MemQueue) {
					continue
				}
				if rerr != nil {
					return
				}
				if finished && int(q.Completed()) >= total {
					return
				}
				waited, timedOut := c.WaitBudget(work, cfg.WaitPolicy, wdBudget, func() bool {
					return q.ReadyIn(wq.MemQueue) > 0 || finished
				})
				recordWait(c, wq.MemQueue, waited)
				if timedOut {
					wd(c)
					continue
				}
				if finished && q.ReadyIn(wq.MemQueue) == 0 && int(q.Completed()) >= total {
					return
				}
			}
		},
	)
	rec.WakeupTimeouts = m.WakeupTimeouts() - wkBase
	if inj != nil {
		rec.FaultsInjected = inj.Total() - injBase
		inj.Publish(m.Observer())
	}
	if rerr == nil && int(q.Completed()) != total {
		// No thread aborted yet the schedule did not finish: an
		// executor invariant violation, reported structurally instead
		// of the former panic.
		rerr = &RunError{Op: "incomplete", Cycle: st.Cycles, Diag: q.Diagnose(),
			Err: fmt.Errorf("%w: %d of %d tasks completed", ErrIncomplete, q.Completed(), total)}
	}
	publishRun(m, "stream2", st, kindCycles)
	ca.publish(m.Observer())
	return Result{Cycles: st.Cycles, Run: st, Queue: q, KindCycles: kindCycles, Recovery: rec}, rerr
}

// publishRun copies one run's cycle accounting into the machine's
// metrics registry, if any.
func publishRun(m *sim.Machine, label string, st sim.RunStats, kindCycles [3]uint64) {
	r := m.Observer()
	if r == nil {
		return
	}
	r.Gauge("exec." + label + ".cycles").Set(float64(st.Cycles))
	for i := range st.ProcCycles {
		pre := fmt.Sprintf("exec.%s.ctx%d.", label, i)
		r.Gauge(pre + "compute_cycles").Set(float64(st.ComputeCycles[i]))
		r.Gauge(pre + "mem_cycles").Set(float64(st.MemCycles[i]))
		r.Gauge(pre + "spin_cycles").Set(float64(st.SpinCycles[i]))
		r.Gauge(pre + "sleep_cycles").Set(float64(st.SleepCycles[i]))
	}
	for k, cyc := range kindCycles {
		r.Gauge("exec." + label + ".kind_cycles." + wq.Kind(k).String()).Set(float64(cyc))
	}
}

// RunStream1Ctx executes the program on a single hardware context by
// software-pipelining the schedule: tasks run in enqueue order, which
// interleaves next-strip gathers with current-strip kernels but cannot
// overlap them in time. The bulk-transfer and SRF-pinning benefits
// remain; the thread-level overlap does not. Under fault injection,
// faulted strips are retried exactly as in the two-context schedule; a
// non-nil error is always a *RunError.
func RunStream1Ctx(m *sim.Machine, p *compiler.Program, cfg Config) (Result, error) {
	attach(m, cfg)
	var kindCycles [3]uint64
	var rec RecoverySummary
	inj := m.FaultInjector()
	injBase := uint64(0)
	if inj != nil {
		injBase = inj.Total()
	}
	ts := newTLSampler(m, p.Options.SRF)
	ca := newCovAttr(m)
	sr := newStripRetrier(m, cfg, &rec, ts)
	var rerr *RunError
	if cfg.Trace != nil {
		cfg.Trace.Reserve(len(p.Tasks), 0)
	}
	st := m.Run(func(c *sim.CPU) {
		for i := range p.Tasks {
			t := &p.Tasks[i]
			before := c.Now()
			ts.taskStart(t.Kind, before)
			ca.taskStart(c.ID())
			runStart, e := sr.run(c, t)
			if e != nil {
				ca.taskEnd(c.ID(), t.Kind, t.Phase)
				ts.taskEnd(t.Kind, c.Now(), nil)
				rerr = e
				return
			}
			kindCycles[t.Kind] += c.Now() - before
			ca.taskEnd(c.ID(), t.Kind, t.Phase)
			ts.taskEnd(t.Kind, c.Now(), nil)
			if cfg.Progress != nil {
				cfg.Progress(ProgressFrame{Done: i + 1, Total: len(p.Tasks),
					Phase: t.Phase, Strip: t.Strip, Cycle: c.Now(), Retries: rec.Retries})
			}
			if cfg.Trace != nil {
				// Sequential schedule: admission and start coincide, and
				// the declared dependencies are the recorded edges (every
				// predecessor has already run, so none are live — but the
				// profiler still uses them as the DAG's structure).
				cfg.Trace.record(TraceEvent{Name: t.Name, Kind: t.Kind, Ctx: c.ID(),
					Phase: t.Phase, Strip: t.Strip, Start: before, End: c.Now(),
					ID: t.ID, RunStart: runStart, Enqueue: before, Deps: t.Deps})
			}
		}
	})
	if inj != nil {
		rec.FaultsInjected = inj.Total() - injBase
		inj.Publish(m.Observer())
	}
	publishRun(m, "stream1", st, kindCycles)
	ca.publish(m.Observer())
	res := Result{Cycles: st.Cycles, Run: st, KindCycles: kindCycles, Recovery: rec}
	if rerr != nil {
		return res, rerr
	}
	return res, nil
}

// Loop is one loop nest of a regular (conventional C-style) program:
// per iteration it performs Refs memory accesses intermixed with
// OpsPerIter compute operations, exactly as compiled scalar code would.
type Loop struct {
	Name string
	N    int
	// Ops returns the compute cost of iteration i (constant for most
	// loops; data-dependent for conditionals).
	Ops func(i int) int64
	// Refs emits iteration i's memory references through emit. They are
	// issued through the bounded out-of-order window.
	Refs func(i int, emit func(addr sim.Addr, size int, write bool))
	// Body performs the functional computation of iteration i (may be
	// nil when the loop exists only for its timing).
	Body func(i int)
}

// RunRegular executes the loops back to back on one context: the
// regular-code baseline of §IV. Memory references issue through a
// window of RegularMLP outstanding accesses that overlaps with the
// loop's computation, modelling the dynamically scheduled pipeline
// "speculatively executing ahead to discover cache misses" (§VI).
func RunRegular(m *sim.Machine, cfg Config, loops ...Loop) Result {
	attach(m, cfg)
	st := m.Run(func(c *sim.CPU) {
		for _, l := range loops {
			pipe := c.NewPipe(cfg.RegularMLP, cfg.RegularIssue, sim.StateCompute)
			var readsDone uint64
			var refs int64
			emit := func(addr sim.Addr, size int, write bool) {
				refs++
				r := pipe.Access(addr, size, write, sim.HintNone)
				if !write && r.Done > readsDone {
					readsDone = r.Done
				}
			}
			for i := 0; i < l.N; i++ {
				readsDone = 0
				refs = 0
				if l.Refs != nil {
					l.Refs(i, emit)
				}
				if l.Body != nil {
					l.Body(i)
				}
				if l.Ops != nil {
					if ops := l.Ops(i); ops > 0 {
						// The iteration's arithmetic depends on its
						// loads; the OoO window hides only
						// RegularOverlapCycles of that wait.
						if readsDone > cfg.RegularOverlapCycles {
							c.StallUntil(readsDone - cfg.RegularOverlapCycles)
						}
						c.Compute(ops + refs*cfg.RegularRefOps)
					}
				}
			}
			pipe.Drain()
		}
	})
	return Result{Cycles: st.Cycles, Run: st}
}

// Speedup returns regular/stream cycle ratio — the paper's metric
// (§IV-A step 7).
func Speedup(regular, stream Result) float64 {
	if stream.Cycles == 0 {
		return 0
	}
	return float64(regular.Cycles) / float64(stream.Cycles)
}
