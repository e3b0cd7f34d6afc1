package streamd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"streamgpp/internal/apps"
	"streamgpp/internal/bench"
	"streamgpp/internal/exec"
	"streamgpp/internal/fault"
)

// State is a job's position in its lifecycle. The machine is linear up
// to running and then fans out to one terminal state:
//
//	queued → admitted → running → done | failed | timed-out
//	                 ↘  shed                    (deadline burned in the queue)
//
// Transitions only ever move forward; a terminal state is final.
type State string

// The job states.
const (
	StateQueued   State = "queued"    // accepted into the bounded job queue
	StateAdmitted State = "admitted"  // claimed by a worker, pre-flight checks
	StateRunning  State = "running"   // simulator executing
	StateDone     State = "done"      // result available (fresh or cached)
	StateFailed   State = "failed"    // run error or worker panic
	StateTimedOut State = "timed-out" // deadline exceeded mid-run, no partial output
	StateShed     State = "shed"      // deadline expired before the run started
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateTimedOut, StateShed:
		return true
	}
	return false
}

// JobSpec is the client-supplied job description. The zero values of
// the workload knobs are normalised to the quickstart defaults; every
// semantic field participates in the job's canonical identity (and so
// in the result-cache key).
type JobSpec struct {
	// App selects the workload: the paper name of a micro-benchmark in
	// the apps registry (QUICKSTART, LD-ST-COMP, GAT-SCAT-COMP,
	// PROD-CON), or WHATIF for the cross-checked what-if analysis.
	App string `json:"app"`
	// N, Comp and Seed parameterise the micro-benchmark (ignored for
	// WHATIF). Zero values normalise to N=60000, Comp=1, Seed=1.
	N    int   `json:"n,omitempty"`
	Comp int   `json:"comp,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// WhatIf is the scenario list for WHATIF jobs (bench.ParseWhatIf
	// grammar, e.g. "ident,dram=0.5,1ctx"); Quick selects the reduced
	// problem size.
	WhatIf string `json:"whatif,omitempty"`
	Quick  bool   `json:"quick,omitempty"`
	// Fault is a fault.ParseSpec injection spec ("kernel_fault:0.01").
	// FaultSeed is the base seed the job's injector seed is derived
	// from (0 = the server's base seed); the effective seed is
	// fault.DeriveSeed(base, canonical identity), never the job ID, so
	// identical specs replay identical fault schedules and the result
	// cache stays sound.
	Fault     string `json:"fault,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// DeadlineMs bounds the job's total latency, queue wait included.
	// 0 means no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Trace requests a Perfetto trace artifact; Coverage a fast-path
	// coverage report. Micro-benchmark jobs only.
	Trace    bool `json:"trace,omitempty"`
	Coverage bool `json:"coverage,omitempty"`
}

// normalize fills workload defaults in place.
func (s *JobSpec) normalize() {
	if s.App != "WHATIF" {
		if s.N == 0 {
			s.N = 60000
		}
		if s.Comp == 0 {
			s.Comp = 1
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
	}
}

// Validate rejects malformed specs. maxN bounds the per-job problem
// size (admission control for memory, not just queue slots). The
// returned errors are client errors: the HTTP layer maps them to 400
// and the message must name the offending field.
func (s *JobSpec) Validate(maxN int) error {
	if a, ok := apps.ByName(s.App); !(ok && a.Micro) && s.App != "WHATIF" {
		var names []string
		for _, a := range apps.All() {
			if a.Micro {
				names = append(names, a.Name)
			}
		}
		return fmt.Errorf("streamd: unknown app %q (want %s or WHATIF)", s.App, strings.Join(names, ", "))
	}
	if s.App == "WHATIF" {
		if s.WhatIf == "" {
			return errors.New("streamd: WHATIF job without a whatif scenario list")
		}
		if _, err := bench.ParseWhatIf(s.WhatIf); err != nil {
			return fmt.Errorf("streamd: %w", err)
		}
		if s.Trace || s.Coverage {
			return errors.New("streamd: trace/coverage artifacts are not available for WHATIF jobs")
		}
	} else {
		if s.N < 1 || s.N > maxN {
			return fmt.Errorf("streamd: n=%d out of range [1, %d]", s.N, maxN)
		}
		if s.Comp < 0 || s.Comp > 1024 {
			return fmt.Errorf("streamd: comp=%d out of range [0, 1024]", s.Comp)
		}
	}
	if s.Fault != "" {
		// ParseSpec names the offending token, so a 400 from here tells
		// the client exactly which entry to fix.
		if _, err := fault.ParseSpec(s.Fault); err != nil {
			return err
		}
	}
	if s.DeadlineMs < 0 {
		return fmt.Errorf("streamd: deadline_ms=%d is negative", s.DeadlineMs)
	}
	return nil
}

// Canonical renders the job's semantic identity as a stable string:
// every field that can change the run's output (or its artifacts),
// and nothing that cannot (job ID, deadline, submission time). The
// result cache keys on its hash — sound because the simulator is
// deterministic: equal canonical strings imply byte-equal results.
func (s JobSpec) Canonical(baseFaultSeed uint64) string {
	base := s.FaultSeed
	if base == 0 {
		base = baseFaultSeed
	}
	return fmt.Sprintf("app=%s n=%d comp=%d seed=%d whatif=%s quick=%v fault=%s faultbase=%d trace=%v coverage=%v",
		s.App, s.N, s.Comp, s.Seed, s.WhatIf, s.Quick, s.Fault, base, s.Trace, s.Coverage)
}

// JobError is the structured, JSON-renderable form of a job failure,
// derived from exec.RunError when the executor produced one. A
// timed-out job reports TimedOut=true and carries the abort site; it
// never carries partial output.
type JobError struct {
	Op       string `json:"op,omitempty"`   // exec op, "panic", or "shed"
	Task     string `json:"task,omitempty"` // task name at the abort site
	Phase    int    `json:"phase"`
	Strip    int    `json:"strip"`
	Cycle    uint64 `json:"cycle,omitempty"`
	Message  string `json:"message"`
	TimedOut bool   `json:"timed_out,omitempty"`
}

// toJobError converts a run failure into its wire form.
func toJobError(err error) *JobError {
	je := &JobError{Phase: -1, Strip: -1, Message: err.Error()}
	var re *exec.RunError
	if errors.As(err, &re) {
		je.Op = re.Op
		je.Task = re.Task
		je.Phase = re.Phase
		je.Strip = re.Strip
		je.Cycle = re.Cycle
		je.TimedOut = re.Cancelled()
	}
	return je
}

// Progress is the wire form of a mid-run progress report, derived
// from exec.ProgressFrame. Seq increases by one per frame the job
// records; readers use it both to detect a new frame (long-poll
// ?wait=1&seq=N) and to keep SSE emission strictly ordered.
type Progress struct {
	Seq     uint64 `json:"seq"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Phase   int    `json:"phase"`
	Strip   int    `json:"strip"`
	Cycle   uint64 `json:"cycle"`
	Retries uint64 `json:"retries"`
}

// Job is one accepted submission.
type Job struct {
	ID        string
	Spec      JobSpec
	Canonical string // canonical identity string
	Key       string // obs.Hash(Canonical) — the cache and ledger key

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on the transition to a terminal state

	// onState, when set (the server wires it at admission), observes
	// every state transition. Called outside j.mu, after the new state
	// is visible; for terminal transitions it runs *before* done is
	// closed, so by the time a waiter unblocks the transition has been
	// logged and counted.
	onState func(j *Job, from, to State)

	mu       sync.Mutex
	state    State
	err      *JobError
	res      *artifacts
	cacheHit bool

	tSubmit time.Time // set at newJob
	tAdmit  time.Time // set entering admitted
	tRun    time.Time // set entering running (zero for cache hits / shed)

	prog   Progress
	progCh chan struct{} // closed and replaced on every new frame
}

// setState advances a non-terminal job.
func (j *Job) setState(s State) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		panic(fmt.Sprintf("streamd: job %s transition %s → %s after terminal", j.ID, j.state, s))
	}
	from := j.state
	j.state = s
	switch s {
	case StateAdmitted:
		j.tAdmit = time.Now()
	case StateRunning:
		j.tRun = time.Now()
	}
	hook := j.onState
	j.mu.Unlock()
	if hook != nil {
		hook(j, from, s)
	}
}

// finish moves the job to a terminal state, recording its result or
// error, and releases the deadline context and waiters.
func (j *Job) finish(s State, res *artifacts, cacheHit bool, jerr *JobError) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		panic(fmt.Sprintf("streamd: job %s finished twice (%s then %s)", j.ID, j.state, s))
	}
	from := j.state
	j.state = s
	j.res = res
	j.cacheHit = cacheHit
	j.err = jerr
	hook := j.onState
	j.mu.Unlock()
	if hook != nil {
		hook(j, from, s)
	}
	j.cancel()
	close(j.done)
}

// noteProgress records one frame from the executor's hook and wakes
// every watcher (long-poll and SSE readers block on progCh). Frames
// arriving after the terminal transition are dropped — the job's
// story is over; waking watchers then could make them observe a
// progress update on a job already reported done.
func (j *Job) noteProgress(f exec.ProgressFrame) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.prog = Progress{
		Seq: j.prog.Seq + 1, Done: f.Done, Total: f.Total,
		Phase: f.Phase, Strip: f.Strip, Cycle: f.Cycle, Retries: f.Retries,
	}
	ch := j.progCh
	j.progCh = make(chan struct{})
	j.mu.Unlock()
	close(ch)
}

// progress returns the latest frame plus a channel closed when a newer
// one lands. Watchers that fall behind coalesce to the latest frame —
// progress is a gauge, not a queue — and select on Done() alongside
// the returned channel, since no frame follows the terminal state.
func (j *Job) progress() (Progress, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.prog, j.progCh
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID         string    `json:"id"`
	App        string    `json:"app"`
	Key        string    `json:"key"`
	State      State     `json:"state"`
	CacheHit   bool      `json:"cache_hit,omitempty"`
	OutputHash string    `json:"output_hash,omitempty"`
	Error      *JobError `json:"error,omitempty"`
	// Progress is the latest mid-run frame, present once the run has
	// reported at least one (and retained on terminal status).
	Progress *Progress `json:"progress,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, App: j.Spec.App, Key: j.Key, State: j.state, CacheHit: j.cacheHit, Error: j.err}
	if j.res != nil {
		st.OutputHash = j.res.hash
	}
	if j.prog.Seq > 0 {
		p := j.prog
		st.Progress = &p
	}
	return st
}

// result returns the terminal result (nil unless done) and whether it
// came from the cache.
func (j *Job) result() (*artifacts, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.cacheHit
}

// newJob builds an accepted job with its deadline context. The clock
// starts at submission: queue wait counts against the deadline, which
// is what lets a saturated server shed stale work instead of running
// jobs nobody is waiting for anymore.
func newJob(id string, spec JobSpec, canonical, key string) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		Canonical: canonical,
		Key:       key,
		state:     StateQueued,
		done:      make(chan struct{}),
		tSubmit:   time.Now(),
		progCh:    make(chan struct{}),
	}
	if spec.DeadlineMs > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), time.Duration(spec.DeadlineMs)*time.Millisecond)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	return j
}
