package sim

import (
	"fmt"

	"streamgpp/internal/obs"
)

// CPU is a thread's handle onto its hardware context. All methods must
// be called only from the thread function the handle was passed to.
//
// Each operation declares the context's activity state (compute,
// memory, spin, sleep) on entry and leaves it set; the sibling context
// samples that state to resolve SMT resource interference. Gaps between
// consecutive operations are attributed to the previous activity, which
// is accurate to within the engine's sampling quantum.
type CPU struct {
	m *Machine
	p *proc
}

// ID returns the hardware context number (0 or 1).
func (c *CPU) ID() int { return c.p.id }

// Now returns the context's local virtual clock, in cycles.
func (c *CPU) Now() uint64 { return c.p.now }

// Machine returns the machine this context belongs to.
func (c *CPU) Machine() *Machine { return c.m }

// park hands control back to the engine so the other context can catch
// up in virtual time. No-op whenever the engine would immediately
// resume this same context — single-thread mode, a sibling that cannot
// run right now (done or asleep), or a sibling that is runnable but not
// next by the engine's rule (smallest clock, ties to the smaller id) —
// because in those cases the channel round-trip changes nothing. A
// sleeping context must always yield, because only the engine can block
// it until its event is signalled.
func (c *CPU) park() {
	if c.m.nlive < 2 {
		return
	}
	if !c.p.sleeping {
		sib := c.m.sibling(c.p.id)
		if sib == nil || sib.state == StateDone || sib.sleeping {
			return
		}
		if c.p.now < sib.now || (c.p.now == sib.now && c.p.id < sib.id) {
			return
		}
	}
	c.p.yield <- struct{}{}
	<-c.p.resume
}

// computeRate returns the context's effective compute rate given what
// the sibling is doing right now — the SMT issue-sharing model behind
// Figs. 6 and 8.
func (c *CPU) computeRate() float64 {
	sib := c.m.sibling(c.p.id)
	if sib == nil {
		return 1
	}
	switch sib.state {
	case StateCompute:
		return c.m.cfg.SMTComputeFactor
	case StateMemory:
		return c.m.cfg.SMTComputeMemFactor
	case StateSpin:
		return c.m.cfg.PausePenalty
	default: // idle, sleeping, done: effectively single-thread mode
		return 1
	}
}

// Compute executes ops abstract compute operations (one op ≈ one
// issue-slot-cycle when running alone). Progress is sampled every
// Quantum cycles so sibling interference tracks state changes.
func (c *CPU) Compute(ops int64) {
	if ops <= 0 {
		return
	}
	c.p.state = StateCompute
	work := float64(ops) * c.m.cfg.CPI // solo cycles of work remaining
	q := float64(c.m.cfg.Quantum)
	for work > 0 {
		chunk := work
		if chunk > q {
			chunk = q
		}
		rate := c.computeRate()
		dt := uint64(chunk/rate + 0.5)
		if dt == 0 {
			dt = 1
		}
		c.p.now += dt
		c.p.computeCycles += dt
		work -= chunk
		c.park()
	}
}

// Read performs one blocking load. The context stalls until the data
// arrives (a dependent scalar access, not a pipelined bulk one — use
// NewPipe for those).
func (c *CPU) Read(addr Addr, size int, hint Hint) AccessResult {
	return c.access(addr, size, false, hint)
}

// Write performs one blocking store (posted immediately for
// non-temporal stores).
func (c *CPU) Write(addr Addr, size int, hint Hint) AccessResult {
	return c.access(addr, size, true, hint)
}

func (c *CPU) access(addr Addr, size int, write bool, hint Hint) AccessResult {
	c.p.state = StateMemory
	r := c.m.Mem.Access(c.p.id, c.p.now, addr, size, write, hint)
	if r.Done > c.p.now {
		c.p.memCycles += r.Done - c.p.now
		c.p.now = r.Done
	}
	c.faultSpike()
	c.park()
	return r
}

// DrainWC flushes this context's write-combining buffer and waits for
// the bus (the sfence closing a non-temporal scatter).
func (c *CPU) DrainWC() {
	c.p.state = StateMemory
	done := c.m.Mem.DrainWC(c.p.id, c.p.now)
	if done > c.p.now {
		c.p.memCycles += done - c.p.now
		c.p.now = done
	}
	c.park()
}

// StallUntil advances the clock to t if it is in the future, charging
// the wait as memory-stall time (a pipeline waiting on a load).
func (c *CPU) StallUntil(t uint64) {
	if t > c.p.now {
		c.p.memCycles += t - c.p.now
		c.p.now = t
		c.park()
	}
}

// Idle advances the local clock without using any resources.
func (c *CPU) Idle(cycles uint64) {
	c.p.state = StateIdle
	c.p.now += cycles
	c.park()
}

// Pipe models a window of outstanding memory accesses: issue proceeds
// while up to MLP accesses are in flight, so independent misses overlap
// (hardware memory-level parallelism for the regular-code baseline,
// software prefetch distance for bulk stream gathers).
type Pipe struct {
	c       *CPU
	mlp     int
	window  []uint64 // completion-time ring buffer, fixed at mlp slots
	whead   int      // index of the oldest entry
	wlen    int      // occupied slots
	issue   uint64   // per-access issue cost, cycles
	pending int      // accesses since last park
	state   ProcState
	slowest uint64

	ps *pinSet // the context's persistent fast-path pins, see bulk.go

	// declared is set by the pattern-declaring entry points (AccessBulk,
	// AccessLoop): only their traffic probes and captures pins. Opaque
	// per-access traffic can hit pins at best as often as the reference
	// hierarchy walk hits its own memos, so probing it is a net tax —
	// measured on the indexed benchmarks, the probe + capture overhead
	// exceeds the walk savings. Like every fast-path policy this only
	// selects which path executes, never what an access does.
	declared bool

	// tlMLP, when non-nil, receives windowed samples of the window
	// occupancy (outstanding misses — achieved MLP). It is resolved at
	// NewPipe for bulk memory pipes only, and sampled exclusively at
	// points both fast-path modes reach identically (DRAM misses and
	// Drain), so an attached timeline preserves fast-on/off
	// byte-identity of the sampled series.
	tlMLP *obs.Series
}

// pipeParkBatch bounds how many accesses a Pipe performs between engine
// yields, trading a little cross-context timing skew for speed.
const pipeParkBatch = 8

// NewPipe returns a pipeline window with the given MLP (≥1) and a
// per-access issue cost in cycles. state tells the interference model
// whether this traffic belongs to a bulk memory task (StateMemory) or
// to ordinary interleaved code (StateCompute for the regular baseline's
// mixed loops, which occupy issue slots too).
func (c *CPU) NewPipe(mlp int, issueCycles uint64, state ProcState) *Pipe {
	if mlp < 1 {
		panic(fmt.Sprintf("sim: pipe MLP %d", mlp))
	}
	p := &Pipe{c: c, mlp: mlp, window: make([]uint64, mlp), issue: issueCycles, state: state,
		ps: &c.m.pinsets[c.p.id]}
	if state == StateMemory && c.m.tl != nil {
		// Only bulk memory traffic feeds the outstanding-miss series:
		// the regular baseline's interleaved pipes (StateCompute) run on
		// their own machine with an unrelated virtual clock.
		p.tlMLP = c.m.tl.Series("mlp outstanding")
	}
	return p
}

// Access issues one access through the window. The context clock tracks
// the issue front; call Drain to synchronise with completions. Only
// accesses that miss to DRAM occupy window slots (the window models
// MSHRs — outstanding misses); cache hits and posted writes cost their
// issue slot but never block the window.
func (p *Pipe) Access(addr Addr, size int, write bool, hint Hint) AccessResult {
	c := p.c
	if c.m.fastPath && p.declared {
		line := addr &^ (Addr(c.m.Mem.cfg.L1Line) - 1)
		s := pinSlot(line)
		// A set at pinColdLimit-1 is (or was recently) on probation:
		// only the line whose capture granted it gets the probe — any
		// other line in a near-cold set is a near-guaranteed miss.
		if cold := p.ps.cold[s]; cold < pinColdLimit-1 ||
			(cold == pinColdLimit-1 && p.ps.probeLine[s] == line) {
			if r, ok := p.fastAccess(addr, size, write, hint); ok {
				return r
			}
		} else {
			c.m.Cov[c.p.id].Bails[BailPinCold]++
		}
	}
	c.m.Cov[c.p.id].SlowAccesses++
	c.p.state = p.state

	start := c.p.now
	if p.wlen == p.mlp {
		oldest := p.window[p.whead]
		p.whead++
		if p.whead == p.mlp {
			p.whead = 0
		}
		p.wlen--
		if oldest > start {
			start = oldest
		}
	}
	r := c.m.Mem.Access(c.p.id, start, addr, size, write, hint)
	if r.Level == LevelPF || r.Level == LevelMem {
		i := p.whead + p.wlen
		if i >= p.mlp {
			i -= p.mlp
		}
		p.window[i] = r.Done
		p.wlen++
		// A miss never takes the pinned fast path, so this sample point
		// is reached identically with the fast path on and off.
		p.tlMLP.Sample(start, float64(p.wlen))
	}
	if r.Done > p.slowest {
		p.slowest = r.Done
	}

	// The clock advances to the issue point, not the completion.
	t := start + p.issue
	if t > c.p.now {
		c.p.memCycles += t - c.p.now
		c.p.now = t
	}
	p.pending++
	if p.pending >= pipeParkBatch {
		p.pending = 0
		c.park()
	}
	if c.m.fastPath && p.declared {
		p.capturePin(addr, size, r.Level)
	}
	return r
}

// Drain waits for every outstanding access to complete and empties the
// window.
func (p *Pipe) Drain() {
	c := p.c
	c.p.state = p.state
	if p.slowest > c.p.now {
		c.p.memCycles += p.slowest - c.p.now
		c.p.now = p.slowest
	}
	p.tlMLP.Sample(c.p.now, float64(p.wlen))
	p.whead = 0
	p.wlen = 0
	p.slowest = 0
	p.pending = 0
	c.faultSpike()
	c.park()
}

// Outstanding returns the number of in-flight accesses.
func (p *Pipe) Outstanding() int { return p.wlen }

// Signal publishes e: any context sleeping on e wakes after its
// policy's dispatch latency; spinning contexts notice on their next
// poll. Costs one store.
func (c *CPU) Signal(e *Event) {
	c.p.now++ // the store itself
	c.m.signal(e, c.p.now)
	c.park()
}

// Wait blocks until cond() is true, using the given wait policy while
// idle. cond is evaluated over engine-serialised shared state, so it
// needs no locking; e must be Signalled by whichever thread makes cond
// true. Returns the number of cycles spent waiting.
func (c *CPU) Wait(e *Event, policy WaitPolicy, cond func() bool) uint64 {
	w, _ := c.WaitBudget(e, policy, 0, cond)
	return w
}

// WaitBudget is Wait with a cycle budget: if cond() is still false
// after budget cycles of waiting, it returns with timedOut true
// instead of waiting forever. A budget of 0 means no deadline (plain
// Wait). Sleeping policies register the deadline with the engine, so a
// lost wakeup signal cannot wedge the run: the engine wakes the
// sleeper at its deadline and the condition is re-checked — if the
// lost signal's state change is visible, the wait completes normally.
// Executors use the budget as a progress watchdog.
func (c *CPU) WaitBudget(e *Event, policy WaitPolicy, budget uint64, cond func() bool) (waited uint64, timedOut bool) {
	start := c.p.now
	if cond() {
		c.p.now += 2 // the check
		return c.p.now - start, false
	}
	deadline := uint64(0)
	if budget > 0 {
		deadline = start + budget
	}
	if c.m.nlive < 2 {
		if deadline == 0 {
			panic("sim: Wait with a false condition in single-thread mode would never complete")
		}
		// Nothing else can make cond true; burn the budget idle and
		// report the timeout.
		c.p.state = StateIdle
		c.p.sleepCycles += deadline - c.p.now
		c.p.now = deadline
		return c.p.now - start, true
	}
	switch policy {
	case PolicyPause:
		c.p.state = StateSpin
		for !cond() {
			if deadline != 0 && c.p.now >= deadline {
				c.p.state = StateIdle
				return c.p.now - start, true
			}
			c.p.now += c.m.cfg.PauseLoopCycles
			c.p.spinCycles += c.m.cfg.PauseLoopCycles
			c.park()
		}
		// Leaving the spin loop costs a pipeline flush; together with
		// the poll interval this reproduces the measured ~175-cycle
		// dispatch.
		exit := c.m.cfg.PauseDispatchLat - c.m.cfg.PauseLoopCycles
		c.p.now += exit
		c.p.spinCycles += exit
		c.p.state = StateIdle
	case PolicyMwait, PolicyOS:
		lat := c.m.cfg.MwaitDispatchLat
		if policy == PolicyOS {
			lat = c.m.cfg.OSDispatchLat
		}
		for !cond() {
			if deadline != 0 && c.p.now >= deadline {
				c.p.state = StateIdle
				return c.p.now - start, true
			}
			if policy == PolicyMwait {
				c.p.now += c.m.cfg.MonitorSetupLat // arm MONITOR
				if cond() {
					break // raced: the write landed while arming
				}
			}
			c.p.state = StateSleep
			c.p.sleeping = true
			c.p.waitEvent = e
			c.p.wakeLat = lat
			c.p.deadline = deadline
			c.park() // the engine resumes us after a Signal or deadline
			c.p.state = StateIdle
			if c.p.timedOut {
				// Woken by the engine at the deadline, not by a
				// signal. If the state change is visible anyway (the
				// signal was lost after the update) the wait has
				// succeeded; otherwise report the timeout.
				c.p.timedOut = false
				if !cond() {
					return c.p.now - start, true
				}
				break
			}
		}
	default:
		panic(fmt.Sprintf("sim: unknown wait policy %d", policy))
	}
	return c.p.now - start, false
}
