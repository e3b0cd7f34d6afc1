package sim

import (
	"fmt"

	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
)

// ProcState describes what a hardware context is doing; the engine uses
// it to resolve SMT resource interference between the two contexts.
type ProcState uint8

// Context activity states.
const (
	StateIdle    ProcState = iota
	StateCompute           // executing a kernel / ALU-bound burst
	StateMemory            // driving bulk memory traffic
	StateSpin              // busy-waiting with PAUSE (consumes issue slots)
	StateSleep             // MWAIT/OS-descheduled (consumes nothing)
	StateDone              // thread returned
)

// String returns a short name for the state.
func (s ProcState) String() string {
	return [...]string{"idle", "compute", "memory", "spin", "sleep", "done"}[s]
}

// Machine is a two-context SMT processor plus its memory system. Create
// one with New, allocate simulated arrays from AS, then Run one or two
// thread functions. Threads are ordinary goroutines; the engine
// serialises them in virtual time (only the context with the smallest
// local clock runs), so thread functions may freely share Go data
// structures without locks — exactly one runs at any instant.
type Machine struct {
	cfg Config
	Mem *MemSystem
	AS  *AddrSpace
	obs *obs.Registry // optional metrics registry (see SetObserver)
	tl  *obs.Timeline // optional timeline sampler (see SetTimeline)

	procs  []*proc
	nlive  int
	epoch  uint64 // virtual time at which the current Run started
	events []*Event

	// fastPath enables the cycle-exact bulk shortcut (see bulk.go).
	// Disabling it forces every bulk access through the per-access
	// reference path; differential tests compare the two.
	fastPath bool

	// flt, when non-nil, is the deterministic fault injector driving
	// the machine-level fault hooks (see fault.go). nil disables every
	// hook with zero timing effect.
	flt *fault.Injector

	// wakeupTimeouts counts engine-level deadline wakes (see
	// WakeupTimeouts).
	wakeupTimeouts uint64

	// Cov accumulates per-context fast-path coverage counters (see
	// coverage.go). Indexed by context id; each context writes only
	// its own slot.
	Cov [2]CoverageStats

	// pinsets holds each context's persistent fast-path pin state (see
	// bulk.go). It lives on the machine, not the Pipe, so pins warmed
	// by one strip's Pipe serve the next strip's: the L1 slots and TLB
	// entries they name are machine-lifetime allocations, validated by
	// generation counters on every use.
	pinsets [2]pinSet
}

type proc struct {
	id     int
	now    uint64
	state  ProcState
	yield  chan struct{}
	resume chan struct{}

	sleeping  bool
	waitEvent *Event
	wakeLat   uint64
	panicVal  any
	aborted   bool // the engine is abandoning the run: unwind, see Machine.abort

	// deadline, when non-zero, is the absolute cycle at which a
	// sleeping context must be woken even without a signal (a
	// WaitBudget in force). timedOut tells the woken Wait loop that it
	// was the deadline, not a signal, that woke it.
	deadline uint64
	timedOut bool

	computeCycles uint64 // cycles spent in StateCompute
	memCycles     uint64
	spinCycles    uint64
	sleepCycles   uint64
}

// Event is a simulated inter-thread notification cell (the cache line a
// MONITOR arms, or the word a PAUSE loop polls). Waiters additionally
// re-check a caller-supplied condition, so an Event works like a
// condition variable over the (engine-serialised) shared state.
type Event struct {
	m      *Machine
	seq    uint64
	lastAt uint64
}

// WaitPolicy selects the busy-wait mechanism of §III-B.2.
type WaitPolicy uint8

// Wait policies evaluated in Fig. 8.
const (
	// PolicyPause spins with the PAUSE instruction: ~175-cycle
	// dispatch, but the spinning context steals issue slots from its
	// sibling.
	PolicyPause WaitPolicy = iota
	// PolicyMwait sleeps with MONITOR/MWAIT: ~680-cycle dispatch,
	// negligible interference.
	PolicyMwait
	// PolicyOS deschedules via the operating system: tens of thousands
	// of cycles to wake, no interference.
	PolicyOS
)

// String returns the policy name.
func (p WaitPolicy) String() string {
	return [...]string{"pause", "mwait", "os"}[p]
}

// New returns a machine with cold caches and an empty address space.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, Mem: NewMemSystem(cfg), AS: NewAddrSpace(cfg.PageBytes),
		obs: defaultObserver, fastPath: true}, nil
}

// MustNew is New, panicking on config errors. For tests and examples.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NewEvent returns a fresh notification cell.
func (m *Machine) NewEvent() *Event {
	e := &Event{m: m}
	m.events = append(m.events, e)
	return e
}

// RunStats summarises one Run call.
type RunStats struct {
	// Cycles is the makespan: the largest context-local clock advance.
	Cycles uint64
	// ProcCycles holds each context's local clock advance.
	ProcCycles []uint64
	// Busy time split per context.
	ComputeCycles []uint64
	MemCycles     []uint64
	SpinCycles    []uint64
	SleepCycles   []uint64
}

// Run executes the given thread functions, one per hardware context
// (at most two), co-simulated in virtual time. It returns when all
// threads have returned. Timing state (clocks) continues from the
// previous Run; caches stay warm. Use ResetTiming/ColdStart between
// independent experiments.
func (m *Machine) Run(threads ...func(*CPU)) RunStats {
	if len(threads) == 0 || len(threads) > 2 {
		panic(fmt.Sprintf("sim: Run wants 1 or 2 threads, got %d", len(threads)))
	}
	m.procs = m.procs[:0]
	start := m.epoch
	for i, fn := range threads {
		p := &proc{id: i, now: start, yield: make(chan struct{}), resume: make(chan struct{})}
		m.procs = append(m.procs, p)
		cpu := &CPU{m: m, p: p}
		go func(fn func(*CPU)) {
			defer func() {
				if r := recover(); r != nil && r != (runAborted{}) {
					p.panicVal = r
				}
				p.state = StateDone
				p.yield <- struct{}{}
			}()
			p.wait()
			fn(cpu)
		}(fn)
	}
	m.nlive = len(m.procs)
	m.schedule()

	stats := RunStats{}
	for _, p := range m.procs {
		adv := p.now - start
		if adv > stats.Cycles {
			stats.Cycles = adv
		}
		stats.ProcCycles = append(stats.ProcCycles, adv)
		stats.ComputeCycles = append(stats.ComputeCycles, p.computeCycles)
		stats.MemCycles = append(stats.MemCycles, p.memCycles)
		stats.SpinCycles = append(stats.SpinCycles, p.spinCycles)
		stats.SleepCycles = append(stats.SleepCycles, p.sleepCycles)
	}
	m.epoch = start + stats.Cycles
	m.procs = m.procs[:0]
	if m.obs != nil {
		// Keep the registry's sim.* gauges current with the cumulative
		// counters as of this run's end. The counter accumulates across
		// every machine sharing the registry, so a whole experiment's
		// simulated-cycle total (and cycles/s) can be read as a delta.
		m.StatsSnapshot().Publish(m.obs)
		m.obs.Counter("sim.run_cycles_total").Add(stats.Cycles)
	}
	return stats
}

// schedule is the engine loop: resume the runnable context with the
// smallest local clock until every thread is done.
func (m *Machine) schedule() {
	for {
		var next *proc
		done := 0
		for _, p := range m.procs {
			switch {
			case p.state == StateDone:
				done++
			case p.sleeping:
				// not runnable
			default:
				if next == nil || p.now < next.now || (p.now == next.now && p.id < next.id) {
					next = p
				}
			}
		}
		if done == len(m.procs) {
			return
		}
		if next == nil {
			// Every live context is asleep. If any sleeper carries a
			// wait-budget deadline, wake the earliest one there: the
			// signal it was waiting for was lost (only possible under
			// fault injection), and the budget is its recovery path.
			// With no deadlines this is a genuine engine invariant
			// violation and we panic with the machine state.
			if s := m.earliestDeadline(); s != nil {
				m.wakeupTimeouts++
				if s.deadline > s.now {
					s.sleepCycles += s.deadline - s.now
					s.now = s.deadline
				}
				s.sleeping = false
				s.waitEvent = nil
				s.deadline = 0
				s.timedOut = true
				continue
			}
			m.deadlock()
		}
		next.resume <- struct{}{}
		<-next.yield
		if next.panicVal != nil {
			// Re-panic on the caller's goroutine so tests and callers
			// can recover.
			m.abort()
			panic(next.panicVal)
		}
	}
}

// earliestDeadline returns the sleeping context with the smallest
// non-zero wait-budget deadline (ties to the smaller id), or nil.
func (m *Machine) earliestDeadline() *proc {
	var best *proc
	for _, p := range m.procs {
		if p.state == StateDone || !p.sleeping || p.deadline == 0 {
			continue
		}
		if best == nil || p.deadline < best.deadline ||
			(p.deadline == best.deadline && p.id < best.id) {
			best = p
		}
	}
	return best
}

func (m *Machine) deadlock() {
	msg := "sim: deadlock — all live contexts are sleeping:"
	for _, p := range m.procs {
		msg += fmt.Sprintf(" ctx%d(state=%s now=%d sleeping=%v)", p.id, p.state, p.now, p.sleeping)
	}
	m.abort()
	panic(msg)
}

// runAborted is the panic value that unwinds a context's goroutine
// when the engine abandons its Run.
type runAborted struct{}

// wait blocks until the engine resumes the context, and unwinds the
// context's goroutine instead of returning when the engine is
// abandoning the run.
func (p *proc) wait() {
	<-p.resume
	if p.aborted {
		panic(runAborted{})
	}
}

// abort unwinds every context that has not returned, before the engine
// panics out of Run, so that no goroutine (nor the Machine it holds)
// outlives the run. Each resume makes the context's wait panic with
// runAborted, which its goroutine's recover swallows; a deferred call
// that parks again is simply resumed again until the goroutine is done.
// The machine is then out of its Run, so ResetTiming and ColdStart
// work on it again.
func (m *Machine) abort() {
	for _, p := range m.procs {
		p.aborted = true
		for p.state != StateDone {
			p.resume <- struct{}{}
			<-p.yield
		}
	}
	m.procs = m.procs[:0]
}

// sibling returns the other context's proc, or nil in single-thread
// (ST) mode — where, as on the real machine, the running context gets
// every core resource.
func (m *Machine) sibling(id int) *proc {
	for _, p := range m.procs {
		if p.id != id {
			return p
		}
	}
	return nil
}

// signal wakes every context sleeping on e.
func (m *Machine) signal(e *Event, at uint64) {
	if m.flt != nil && m.flt.Roll(fault.DroppedWakeup, at) {
		// The store never reaches the monitored line: sleepers stay
		// asleep (their wait-budget deadline recovers them) and
		// spinners simply re-poll their condition.
		m.flt.Annotate("sim.signal")
		return
	}
	e.seq++
	e.lastAt = at
	for _, p := range m.procs {
		if p.sleeping && p.waitEvent == e {
			p.sleeping = false
			p.waitEvent = nil
			p.deadline = 0
			wake := at + p.wakeLat
			if wake > p.now {
				p.sleepCycles += wake - p.now
				p.now = wake
			}
		}
	}
}

// ResetTiming rewinds all clocks and shared-resource reservations to
// zero and zeroes statistics, keeping cache/TLB contents warm. Address
// space allocations survive.
func (m *Machine) ResetTiming() {
	if len(m.procs) != 0 {
		panic("sim: ResetTiming during Run")
	}
	m.epoch = 0
	m.Mem.Bus.busyUntil = 0
	m.Mem.Bus.hasRow = false
	m.Mem.Bus.lastUse = [2]uint64{}
	m.Mem.walkerBusy = 0
	m.ResetStats()
	for i := range m.Mem.PF {
		m.Mem.PF[i].pending.clear()
	}
	for _, e := range m.events {
		e.lastAt = 0
	}
}

// ColdStart is ResetTiming plus flushing caches, TLB, prefetchers and
// write-combining buffers: the state of a freshly booted experiment.
func (m *Machine) ColdStart() {
	m.ResetTiming()
	m.Mem.FlushAll()
}

// Describe returns a short multi-line description of the machine, for
// experiment headers.
func (m *Machine) Describe() string {
	c := m.cfg
	return fmt.Sprintf("simulated CPU: %.1f GHz, L1 %dKB/%d-way/%dB, L2 %dKB/%d-way/%dB (hit %d cyc), TLB %d entries, FSB %.1f GB/s",
		c.FreqHz/1e9, c.L1Bytes>>10, c.L1Ways, c.L1Line,
		c.L2Bytes>>10, c.L2Ways, c.L2Line, c.L2HitLat,
		c.TLBEntries, c.BusBytesPerCycle*c.FreqHz/1e9)
}
