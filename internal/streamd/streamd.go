// Package streamd is the fault-tolerant job service over the
// simulator: an HTTP/JSON server that accepts simulation and what-if
// jobs, schedules them on a bounded worker pool with admission
// control and per-job deadlines, serves repeated configurations from a
// content-addressed result cache, and drains gracefully on SIGTERM —
// accepted jobs finish, new ones are rejected, the run ledger is left
// valid. See DESIGN.md §15 for the job state machine and the cache
// soundness argument.
package streamd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/wq"
)

// ErrFull is the admission-control rejection: every job-queue slot is
// in use. It aliases wq.ErrFull deliberately — the job layer applies
// the same bounded-queue discipline the strip layer got, one level up;
// the HTTP layer maps it to 429 + Retry-After.
var ErrFull = wq.ErrFull

// ErrDraining rejects submissions during shutdown (HTTP 503).
var ErrDraining = errors.New("streamd: server draining, not accepting jobs")

// Options configures a Server. Zero values take the documented
// defaults.
type Options struct {
	// Workers is the job-worker pool size (default 4).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (default 64, the
	// work queue's slot count — the same admission bound one level up).
	QueueDepth int
	// CacheEntries bounds the result cache (default 1024 entries).
	CacheEntries int
	// MaxN bounds a single job's problem size (default 2,000,000
	// elements — admission control for memory, not just queue slots).
	MaxN int
	// LedgerPath, when non-empty, appends one obs ledger entry per
	// fresh (non-cached) completed run. The file is repaired at
	// startup if a previous process died mid-append (torn tail).
	LedgerPath string
	// EventsPath, when non-empty, persists the job lifecycle event log
	// (JSONL, one record per state transition) at that path. Defaults
	// to LedgerPath+".events" when a ledger is configured; with
	// neither, events are held in memory only (still served at
	// GET /jobs/{id}/events). Like the ledger, an existing file is
	// repaired at startup if its final line was torn.
	EventsPath string
	// BaseFaultSeed seeds per-job fault derivation for specs that do
	// not carry their own (default 1).
	BaseFaultSeed uint64
	// Logger receives the structured access and job-lifecycle log
	// lines (log/slog). Every line about a job carries job_id and
	// config_hash, the same keys the events JSONL and the ledger use,
	// so the three records join. Nil discards.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// Handler. Off by default: live profiling is opt-in.
	EnablePprof bool
	// SLOs are the service-level objectives the /sloz engine evaluates
	// (burn-rate gauges also ride /metricz). Nil takes DefaultSLOs.
	SLOs []obs.SLOObjective
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = wq.DefaultCapacity
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.MaxN <= 0 {
		o.MaxN = 2_000_000
	}
	if o.BaseFaultSeed == 0 {
		o.BaseFaultSeed = 1
	}
	if o.EventsPath == "" && o.LedgerPath != "" {
		o.EventsPath = o.LedgerPath + ".events"
	}
	if o.Logger == nil {
		o.Logger = slog.New(discardHandler{})
	}
	if o.SLOs == nil {
		o.SLOs = DefaultSLOs()
	}
}

// discardHandler is the default log handler. Its Enabled is false at
// every level, so a server without a logger builds no record at all
// (a handler writing to io.Discard formats each one first).
// slog.DiscardHandler does the same from go 1.24 on.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// DefaultSLOs are the objectives a server evaluates when the caller
// declares none: job runs under 2s at p95, queue wait under 500ms at
// p99, and three-nines non-5xx availability. Latency thresholds sit on
// histogram bucket bounds (powers of two) so the conservative
// bucket-rounding in the SLO engine costs nothing.
func DefaultSLOs() []obs.SLOObjective {
	return []obs.SLOObjective{
		{Name: "run-latency", Class: obs.SLOLatency,
			Metric: "streamd.run_ms", ThresholdMs: 2048, Target: 0.95},
		{Name: "queue-wait", Class: obs.SLOLatency,
			Metric: "streamd.queue_wait_ms", ThresholdMs: 512, Target: 0.99},
		{Name: "availability", Class: obs.SLORatio,
			Metric: "streamd.http.responses_5xx", Total: "streamd.http.requests",
			Target: 0.999},
	}
}

// Stats is a snapshot of the server's counters, served at /statz.
type Stats struct {
	UptimeSec      float64        `json:"uptime_sec"`
	Accepted       uint64         `json:"accepted"`
	RejectedFull   uint64         `json:"rejected_full"`
	RejectedDrain  uint64         `json:"rejected_draining"`
	Done           uint64         `json:"done"`
	Failed         uint64         `json:"failed"`
	TimedOut       uint64         `json:"timed_out"`
	Shed           uint64         `json:"shed"`
	Panics         uint64         `json:"panics"`
	CacheHits      uint64         `json:"cache_hits"`
	CacheMisses    uint64         `json:"cache_misses"`
	CacheEntries   int            `json:"cache_entries"`
	QueueDepth     int            `json:"queue_depth"`
	Workers        int            `json:"workers"`
	Draining       bool           `json:"draining"`
	JobsByState    map[string]int `json:"jobs_by_state"`
	LedgerEntries  uint64         `json:"ledger_entries"`
	LedgerTornTail bool           `json:"ledger_torn_tail_repaired"`
	EventsDropped  uint64         `json:"events_dropped,omitempty"`
	// BuildInfo is the process's build identity (Go version, VCS
	// revision) — the /statz twin of the streamd_build_info gauge.
	BuildInfo       map[string]string `json:"build_info,omitempty"`
	RepairedAtStart bool              `json:"-"`
}

// Server is the streamd job service.
type Server struct {
	opts      Options
	cache     *cache
	queue     chan *Job
	start     time.Time
	reg       *obs.Registry // /metricz instruments
	events    *eventLog
	log       *slog.Logger
	rt        *obs.RuntimeCollector
	buildInfo map[string]string

	sloMu sync.Mutex // serialises SLO evaluate/record (engine is not concurrency-safe)
	slo   *obs.SLOEngine

	mu          sync.Mutex
	jobs        map[string]*Job
	draining    bool
	nextID      uint64
	stats       Stats
	stateCounts map[State]int // live jobs per state (terminal states accumulate)

	ledgerMu sync.Mutex // serialises ledger appends

	workers sync.WaitGroup
	// run executes one job spec; tests substitute it to script
	// saturation, panics and deadlines deterministically. The progress
	// callback (may be nil) receives the executor's mid-run frames.
	run func(ctx context.Context, spec JobSpec, canonical, key string, baseFaultSeed uint64, progress func(exec.ProgressFrame)) (*artifacts, error)
}

// New builds and starts a server: the ledger is repaired if a previous
// process tore its final line, and the worker pool is running on
// return.
func New(opts Options) (*Server, error) {
	opts.setDefaults()
	s := &Server{
		opts:        opts,
		cache:       newCache(opts.CacheEntries),
		queue:       make(chan *Job, opts.QueueDepth),
		start:       time.Now(),
		reg:         obs.NewRegistry(),
		jobs:        make(map[string]*Job),
		stateCounts: make(map[State]int),
		run:         runSpec,
		log:         opts.Logger,
		buildInfo:   obs.BuildInfoLabels(),
	}
	s.stats.Workers = opts.Workers
	s.rt = obs.NewRuntimeCollector(s.reg)
	s.slo = obs.NewSLOEngine(s.start, opts.SLOs)
	s.reg.Info("streamd.build_info", s.buildInfo)
	events, err := newEventLog(opts.EventsPath)
	if err != nil {
		return nil, err
	}
	s.events = events
	if opts.LedgerPath != "" {
		if _, err := os.Stat(opts.LedgerPath); err == nil {
			repaired, err := obs.RepairLedger(opts.LedgerPath)
			if err != nil {
				return nil, fmt.Errorf("streamd: ledger %s unusable: %w", opts.LedgerPath, err)
			}
			s.stats.RepairedAtStart = repaired
			s.stats.LedgerTornTail = repaired
		}
	}
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit validates and admits a job. On success the job is queued (its
// deadline clock already running). Admission errors: a validation
// error (client's fault, HTTP 400), ErrFull (saturated, HTTP 429) or
// ErrDraining (shutting down, HTTP 503).
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	spec.normalize()
	if err := spec.Validate(s.opts.MaxN); err != nil {
		return nil, &ValidationError{Err: err}
	}
	canonical := spec.Canonical(s.opts.BaseFaultSeed)
	key := obs.Hash(canonical)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.stats.RejectedDrain++
		s.reg.Counter("streamd.jobs_rejected_draining").Inc()
		s.log.Warn("job", "event", "reject", "reason", "draining",
			"app", spec.App, "config_hash", key)
		return nil, ErrDraining
	}
	// The ID is burned whether or not admission succeeds: a rejected
	// submission still gets a reject event under its own ID, and IDs
	// are never reused, so the event log's per-job histories never
	// collide.
	s.nextID++
	job := newJob(fmt.Sprintf("job-%06d", s.nextID), spec, canonical, key)
	job.onState = s.onTransition
	// The submit event is appended *before* the queue send: the moment
	// the job is in the channel a worker can claim it, and its admit
	// event must sort after submit.
	s.events.append(Event{Job: job.ID, Type: EventSubmit, State: StateQueued, App: spec.App, Key: key})
	select {
	case s.queue <- job:
	default:
		job.cancel()
		s.stats.RejectedFull++
		s.reg.Counter("streamd.jobs_rejected_full").Inc()
		s.events.append(Event{Job: job.ID, Type: EventReject, App: spec.App, Key: key})
		s.log.Warn("job", "job_id", job.ID, "event", "reject", "reason", "full",
			"app", spec.App, "config_hash", key)
		return nil, ErrFull
	}
	s.jobs[job.ID] = job
	s.stats.Accepted++
	s.reg.Counter("streamd.jobs_accepted").Inc()
	s.log.Info("job", "job_id", job.ID, "event", "submit", "state", string(StateQueued),
		"app", spec.App, "config_hash", key)
	s.stateCounts[StateQueued]++
	s.reg.Gauge("streamd.jobs_by_state.queued").Set(float64(s.stateCounts[StateQueued]))
	return job, nil
}

// onTransition is the job state-machine observer (wired as Job.onState
// at admission): it maintains the per-state gauges, feeds the latency
// histograms — queue_wait_ms at admit, admission_ms at run start,
// run_ms at the terminal edge — and appends the lifecycle event. It
// runs on the transitioning goroutine with j.mu released; for
// terminal transitions it completes before the job's Done channel
// closes, so a waiter never observes a terminal status whose event is
// missing from the log.
func (s *Server) onTransition(j *Job, from, to State) {
	s.mu.Lock()
	s.stateCounts[from]--
	s.stateCounts[to]++
	// Gauges live under jobs_by_state so that after PromName flattens
	// '.' to '_' they cannot collide with the terminal counters below
	// ("streamd.jobs.done" and "streamd.jobs_done" would otherwise both
	// become the Prometheus family "streamd_jobs_done" with conflicting
	// types, which a scraper rejects wholesale).
	s.reg.Gauge("streamd.jobs_by_state." + promStateName(from)).Set(float64(s.stateCounts[from]))
	s.reg.Gauge("streamd.jobs_by_state." + promStateName(to)).Set(float64(s.stateCounts[to]))
	s.mu.Unlock()

	st := j.Status()
	ev := Event{Job: j.ID, Type: "", State: to, App: j.Spec.App, Key: j.Key}
	if st.Progress != nil {
		ev.Retries = st.Progress.Retries
	}
	switch {
	case to == StateAdmitted:
		ev.Type = EventAdmit
		s.reg.Histogram("streamd.queue_wait_ms").Observe(float64(j.tAdmit.Sub(j.tSubmit)) / float64(time.Millisecond))
	case to == StateRunning:
		ev.Type = EventStart
		ev.Cache = "miss"
		s.reg.Counter("streamd.cache.misses").Inc()
		s.reg.Histogram("streamd.admission_ms").Observe(float64(j.tRun.Sub(j.tAdmit)) / float64(time.Millisecond))
	case to.Terminal():
		ev.Type = EventTerminal
		ev.Error = st.Error
		if st.CacheHit {
			ev.Cache = "hit"
			s.reg.Counter("streamd.cache.hits").Inc()
		} else if from == StateRunning {
			ev.Cache = "miss"
			s.reg.Histogram("streamd.run_ms").Observe(float64(time.Since(j.tRun)) / float64(time.Millisecond))
		}
		s.reg.Counter("streamd.jobs_" + promStateName(to)).Inc()
	}
	s.events.append(ev)

	// The slog line mirrors the event record key-for-key (job_id,
	// config_hash, state) so grep-by-hash lands on the same runs in
	// logs, events JSONL and ledger.
	attrs := []any{
		"job_id", j.ID, "event", ev.Type, "state", string(to),
		"app", j.Spec.App, "config_hash", j.Key,
	}
	if ev.Cache != "" {
		attrs = append(attrs, "cache", ev.Cache)
	}
	if ev.Retries > 0 {
		attrs = append(attrs, "retries", ev.Retries)
	}
	if ev.Error != nil {
		attrs = append(attrs, "error", ev.Error.Message)
		s.log.Error("job", attrs...)
		return
	}
	s.log.Info("job", attrs...)
}

// promStateName maps a State to its counter suffix ("timed-out" →
// "timed_out" — obs.PromName would do it too, but doing it here keeps
// the registry's dotted names consistent).
func promStateName(st State) string {
	switch st {
	case StateTimedOut:
		return "timed_out"
	default:
		return string(st)
	}
}

// ValidationError marks a client error (HTTP 400).
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits until every accepted job has reached
// a terminal state. Safe to call more than once and from multiple
// goroutines; all callers return once the pool is idle. The ledger
// needs no separate flush: entries are appended (and synced by the OS)
// per run, so after Drain the file is a complete, valid JSONL record
// of every fresh run.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers exit after finishing what was accepted
	}
	s.mu.Unlock()
	s.workers.Wait()
	// Every worker has exited, so no event can follow: the JSONL event
	// log is complete and its tail line whole.
	s.events.closeFile()
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Draining = s.draining
	st.QueueDepth = len(s.queue)
	st.JobsByState = make(map[string]int, len(s.stateCounts))
	for state, n := range s.stateCounts {
		if n != 0 {
			st.JobsByState[string(state)] = n
		}
	}
	s.mu.Unlock()
	st.UptimeSec = time.Since(s.start).Seconds()
	st.CacheHits, st.CacheMisses, st.CacheEntries = s.cache.stats()
	st.EventsDropped = s.events.dropped()
	st.BuildInfo = s.buildInfo
	return st
}

// MetricsSnapshot refreshes the point-in-time gauges (uptime, queue
// depth, cache size, drain flag), samples the Go runtime collector,
// evaluates the SLO engine into its burn-rate gauges and returns the
// registry snapshot /metricz encodes. Counters and histograms are
// updated at the edges that define them (admission, state
// transitions), not here — scrape time is when the derived, host-side
// views refresh.
func (s *Server) MetricsSnapshot() obs.Snapshot {
	st := s.Stats()
	s.reg.Gauge("streamd.uptime_sec").Set(st.UptimeSec)
	s.reg.Gauge("streamd.queue.depth").Set(float64(st.QueueDepth))
	s.reg.Gauge("streamd.cache.entries").Set(float64(st.CacheEntries))
	s.reg.Gauge("streamd.workers").Set(float64(st.Workers))
	s.reg.Gauge("streamd.events.dropped").Set(float64(st.EventsDropped))
	var draining float64
	if st.Draining {
		draining = 1
	}
	s.reg.Gauge("streamd.draining").Set(draining)
	s.rt.Collect()
	s.sloEval()
	return s.reg.Snapshot()
}

// sloEval runs one SLO evaluation cycle: report against the current
// registry state, mirror the page-relevant numbers into gauges
// (slo.<objective>.burn_<window>, .sli_<window>, .budget_used_pct,
// slo.healthy), and record the snapshot as a future window baseline.
func (s *Server) sloEval() obs.SLOReport {
	now := time.Now()
	s.sloMu.Lock()
	snap := s.reg.Snapshot()
	rep := s.slo.Report(now, snap)
	s.slo.Record(now, snap)
	s.sloMu.Unlock()
	rep.Now = now.UTC().Format(time.RFC3339)
	for _, o := range rep.Objectives {
		prefix := "slo." + o.Name + "."
		s.reg.Gauge(prefix + "budget_used_pct").Set(o.BudgetUsedPct)
		for _, ws := range o.Windows {
			s.reg.Gauge(prefix + "burn_" + ws.Window).Set(ws.BurnRate)
			s.reg.Gauge(prefix + "sli_" + ws.Window).Set(ws.SLI)
		}
	}
	var healthy float64
	if rep.Healthy {
		healthy = 1
	}
	s.reg.Gauge("slo.healthy").Set(healthy)
	return rep
}

// SLOReport evaluates the service-level objectives right now — the
// GET /sloz payload. Each evaluation also feeds the burn-rate gauges
// and records a baseline sample, exactly like a /metricz scrape.
func (s *Server) SLOReport() obs.SLOReport {
	return s.sloEval()
}

// worker is the job-worker loop. The pool drains the queue until
// Drain closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// count bumps one terminal-state counter.
func (s *Server) count(st State, panicked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch st {
	case StateDone:
		s.stats.Done++
	case StateFailed:
		s.stats.Failed++
	case StateTimedOut:
		s.stats.TimedOut++
	case StateShed:
		s.stats.Shed++
	}
	if panicked {
		s.stats.Panics++
		s.reg.Counter("streamd.panics").Inc()
	}
}

// runJob takes one accepted job to a terminal state. Panics are
// isolated here: a crashing run marks its job failed and the worker
// (and server) live on.
func (s *Server) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			j.finish(StateFailed, nil, false, &JobError{
				Op: "panic", Phase: -1, Strip: -1,
				Message: fmt.Sprintf("job worker panic: %v", r),
			})
			s.count(StateFailed, true)
		}
	}()

	j.setState(StateAdmitted)

	// A deadline burned entirely in the queue sheds the job: running it
	// would return a result nobody is waiting for, and under overload
	// shedding stale work is what keeps the queue moving.
	if err := j.ctx.Err(); err != nil {
		j.finish(StateShed, nil, false, &JobError{
			Op: "shed", Phase: -1, Strip: -1,
			Message:  "deadline expired while queued: " + err.Error(),
			TimedOut: errors.Is(err, context.DeadlineExceeded),
		})
		s.count(StateShed, false)
		return
	}

	// Content-addressed hit: the stored bytes are, by determinism, the
	// bytes this run would have produced.
	if a, ok := s.cache.get(j.Key); ok {
		j.finish(StateDone, a, true, nil)
		s.count(StateDone, false)
		return
	}

	j.setState(StateRunning)
	// The progress callback runs on this worker goroutine, inside the
	// simulator's task loop: it must stay cheap and never block. It
	// publishes the frame for long-poll/SSE watchers and logs a retry
	// event whenever the run's recovery tally grows.
	var lastRetries uint64
	progress := func(f exec.ProgressFrame) {
		if f.Retries > lastRetries {
			lastRetries = f.Retries
			s.events.append(Event{
				Job: j.ID, Type: EventRetry, State: StateRunning,
				App: j.Spec.App, Key: j.Key, Retries: f.Retries,
			})
		}
		j.noteProgress(f)
	}
	t0 := time.Now()
	a, err := s.run(j.ctx, j.Spec, j.Canonical, j.Key, s.opts.BaseFaultSeed, progress)
	wall := time.Since(t0)
	if err != nil {
		je := toJobError(err)
		st := StateFailed
		if je.TimedOut {
			st = StateTimedOut
		}
		j.finish(st, nil, false, je)
		s.count(st, false)
		return
	}
	s.cache.put(j.Key, a)
	j.finish(StateDone, a, false, nil)
	s.count(StateDone, false)
	s.appendLedger(j, a, wall)
}

// appendLedger records one fresh run. Serialised: concurrent workers
// must not interleave appends to the JSONL file.
func (s *Server) appendLedger(j *Job, a *artifacts, wall time.Duration) {
	if s.opts.LedgerPath == "" {
		return
	}
	entry := obs.LedgerEntry{
		Schema:     obs.LedgerSchema,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Experiment: "streamd/" + j.Spec.App,
		Config:     j.Canonical,
		ConfigHash: j.Key,
		FastPath:   true,
		Quick:      j.Spec.Quick,
		WallNs:     wall.Nanoseconds(),
		SimCycles:  a.simCycles,
		OutputHash: a.hash,
		Metrics:    a.metrics,
		Source:     "streamd",
		Extra:      map[string]string{"job": j.ID},
	}
	if wall > 0 {
		entry.SimCyclesPerSec = float64(a.simCycles) / wall.Seconds()
	}
	s.ledgerMu.Lock()
	err := obs.AppendLedger(s.opts.LedgerPath, entry)
	s.ledgerMu.Unlock()
	// A ledger append failure must not fail the job: the result is
	// already computed and cached. Successful appends are counted so
	// /statz (and the drain smoke) can cross-check the file.
	if err == nil {
		s.mu.Lock()
		s.stats.LedgerEntries++
		s.mu.Unlock()
		s.reg.Counter("streamd.ledger.entries").Inc()
	}
}
