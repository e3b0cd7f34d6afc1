package sim

import (
	"runtime"
	"testing"
	"time"
)

// computeTask burns ops compute operations.
func computeTask(ops int64) func(*CPU) {
	return func(c *CPU) { c.Compute(ops) }
}

// memoryTask streams over a region with bulk NT reads, as the paper's
// memory thread does.
func memoryTask(reg Region) func(*CPU) {
	return func(c *CPU) {
		pipe := c.NewPipe(2, 1, StateMemory)
		line := uint64(128)
		for a := reg.Base; a < reg.End(); a += line {
			pipe.Access(a, int(line), false, HintNonTemporal)
		}
		pipe.Drain()
	}
}

func TestSingleThreadCompute(t *testing.T) {
	m := MustNew(PentiumD8300())
	st := m.Run(computeTask(100000))
	// Solo compute: ops * CPI cycles, within rounding.
	if st.Cycles < 100000 || st.Cycles > 101000 {
		t.Fatalf("solo compute took %d cycles, want ~100000", st.Cycles)
	}
}

func TestComputeComputeOverlapSavesTime(t *testing.T) {
	cfg := PentiumD8300()
	m := MustNew(cfg)
	serial := m.Run(func(c *CPU) {
		c.Compute(500000)
		c.Compute(500000)
	}).Cycles
	m.ResetTiming()
	par := m.Run(computeTask(500000), computeTask(500000)).Cycles

	saving := 1 - float64(par)/float64(serial)
	// Fig. 6a: overlapping two compute tasks saves 20–30%.
	if saving < 0.15 || saving > 0.35 {
		t.Fatalf("comp∥comp saving %.0f%% (serial=%d par=%d), want 20–30%%", saving*100, serial, par)
	}
}

func TestMemoryMemoryOverlapHurts(t *testing.T) {
	cfg := PentiumD8300()
	m := MustNew(cfg)
	a := m.AS.Alloc("a", 4<<20)
	b := m.AS.Alloc("b", 4<<20)

	serial := m.Run(func(c *CPU) {
		memoryTask(a)(c)
		memoryTask(b)(c)
	}).Cycles
	m.ColdStart()
	par := m.Run(memoryTask(a), memoryTask(b)).Cycles

	ratio := float64(par) / float64(serial)
	// Fig. 6b: overlapping two bulk memory operations is ~6% slower.
	if ratio < 1.01 || ratio > 1.20 {
		t.Fatalf("mem∥mem ratio %.3f (serial=%d par=%d), want ~1.06", ratio, serial, par)
	}
}

func TestComputeMemoryOverlapSavesTime(t *testing.T) {
	cfg := PentiumD8300()
	m := MustNew(cfg)
	a := m.AS.Alloc("a", 4<<20)

	// Size the compute so the two halves are comparable.
	memSolo := m.Run(memoryTask(a)).Cycles
	m.ColdStart()
	ops := int64(memSolo)

	serial := m.Run(func(c *CPU) {
		c.Compute(ops)
		memoryTask(a)(c)
	}).Cycles
	m.ColdStart()
	par := m.Run(computeTask(ops), memoryTask(a)).Cycles

	saving := 1 - float64(par)/float64(serial)
	// Fig. 6c: overlapping computation with memory saves 20–30%.
	if saving < 0.15 || saving > 0.40 {
		t.Fatalf("comp∥mem saving %.0f%% (serial=%d par=%d), want 20–30%%", saving*100, serial, par)
	}
}

func TestPauseSpinHurtsSiblingCompute(t *testing.T) {
	cfg := PentiumD8300()
	m := MustNew(cfg)
	solo := m.Run(computeTask(1000000)).Cycles

	m.ResetTiming()
	ev := m.NewEvent()
	fired := false
	with := m.Run(
		func(c *CPU) {
			c.Compute(1000000)
			fired = true
			c.Signal(ev)
		},
		func(c *CPU) {
			c.Wait(ev, PolicyPause, func() bool { return fired })
		},
	).ProcCycles[0]

	ratio := float64(with) / float64(solo)
	// Fig. 8a: a PAUSE spinner greatly impacts sibling compute.
	if ratio < 1.15 || ratio > 1.6 {
		t.Fatalf("compute vs PAUSE spinner ratio %.2f, want ~1.35", ratio)
	}
}

func TestMwaitSleepDoesNotHurtSibling(t *testing.T) {
	cfg := PentiumD8300()
	m := MustNew(cfg)
	solo := m.Run(computeTask(1000000)).Cycles

	m.ResetTiming()
	ev := m.NewEvent()
	fired := false
	with := m.Run(
		func(c *CPU) {
			c.Compute(1000000)
			fired = true
			c.Signal(ev)
		},
		func(c *CPU) {
			c.Wait(ev, PolicyMwait, func() bool { return fired })
		},
	).ProcCycles[0]

	ratio := float64(with) / float64(solo)
	// Fig. 8b: MONITOR/MWAIT has negligible impact.
	if ratio > 1.03 {
		t.Fatalf("compute vs MWAIT sleeper ratio %.2f, want ~1.00", ratio)
	}
}

func TestPauseSpinNegligibleForSiblingMemory(t *testing.T) {
	cfg := PentiumD8300()
	m := MustNew(cfg)
	a := m.AS.Alloc("a", 4<<20)
	solo := m.Run(memoryTask(a)).Cycles

	m.ColdStart()
	ev := m.NewEvent()
	fired := false
	with := m.Run(
		func(c *CPU) {
			memoryTask(a)(c)
			fired = true
			c.Signal(ev)
		},
		func(c *CPU) {
			c.Wait(ev, PolicyPause, func() bool { return fired })
		},
	).ProcCycles[0]

	ratio := float64(with) / float64(solo)
	if ratio > 1.10 {
		t.Fatalf("memory vs PAUSE spinner ratio %.2f, want ~1.00", ratio)
	}
}

func TestWaitDispatchLatencies(t *testing.T) {
	cfg := PentiumD8300()
	for _, tc := range []struct {
		policy   WaitPolicy
		min, max uint64
	}{
		{PolicyPause, 100, 400},
		{PolicyMwait, 500, 1500},
		{PolicyOS, 20000, 60000},
	} {
		m := MustNew(cfg)
		ev := m.NewEvent()
		fired := false
		var notifiedAt, wokeAt uint64
		m.Run(
			func(c *CPU) {
				c.Compute(5000)
				fired = true
				notifiedAt = c.Now()
				c.Signal(ev)
			},
			func(c *CPU) {
				c.Wait(ev, tc.policy, func() bool { return fired })
				wokeAt = c.Now()
			},
		)
		lat := wokeAt - notifiedAt
		if lat < tc.min || lat > tc.max {
			t.Errorf("%v dispatch latency %d cycles, want [%d,%d]", tc.policy, lat, tc.min, tc.max)
		}
	}
}

func TestWaitConditionAlreadyTrue(t *testing.T) {
	m := MustNew(PentiumD8300())
	ev := m.NewEvent()
	m.Run(func(c *CPU) {
		before := c.Now()
		spent := c.Wait(ev, PolicyMwait, func() bool { return true })
		if spent > 5 || c.Now()-before > 5 {
			t.Errorf("already-true wait cost %d cycles", spent)
		}
	}, func(c *CPU) {})
}

func TestDeadlockDetection(t *testing.T) {
	m := MustNew(PentiumD8300())
	ev := m.NewEvent()
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	m.Run(
		func(c *CPU) { c.Wait(ev, PolicyMwait, func() bool { return false }) },
		func(c *CPU) { c.Wait(ev, PolicyMwait, func() bool { return false }) },
	)
}

// TestAbortedRunsLeaveNoGoroutines checks that a Run ending in a panic
// (one context panics while its sibling is parked, or not yet started)
// or in a deadlock unwinds every context's goroutine, including one
// whose deferred call parks again, and leaves the machine out of its
// Run.
func TestAbortedRunsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := MustNew(PentiumD8300())
	ev := m.NewEvent()
	idle := func(c *CPU) { c.Idle(1000) }
	sleep := func(c *CPU) { c.Wait(ev, PolicyMwait, func() bool { return false }) }
	runs := []struct {
		name    string
		threads []func(*CPU)
	}{
		{"panic-before-sibling-starts", []func(*CPU){func(c *CPU) { panic("boom") }, idle}},
		{"panic-with-sibling-parked", []func(*CPU){func(c *CPU) { c.Idle(10); panic("boom") }, idle}},
		{"panic-with-sibling-deferring", []func(*CPU){func(c *CPU) { c.Idle(10); panic("boom") },
			func(c *CPU) { defer c.Idle(5); c.Idle(1000) }}},
		{"deadlock", []func(*CPU){sleep, sleep}},
		{"deadlock-with-deferred-park", []func(*CPU){func(c *CPU) { defer c.Idle(5); sleep(c) }, sleep}},
	}
	for _, r := range runs {
		for i := 0; i < 10; i++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: Run did not panic", r.name)
					}
				}()
				m.Run(r.threads...)
			}()
			m.ColdStart() // panics while the machine is still in a Run
		}
	}
	// A goroutine exits just after its last handoff, so allow it a
	// moment to finish.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after %d aborted runs, %d before", n, 10*len(runs), base)
	}
}

func TestSingleThreadWaitPanics(t *testing.T) {
	m := MustNew(PentiumD8300())
	ev := m.NewEvent()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unfulfillable single-thread wait")
		}
	}()
	m.Run(func(c *CPU) { c.Wait(ev, PolicyPause, func() bool { return false }) })
}

func TestRunDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := MustNew(PentiumD8300())
		a := m.AS.Alloc("a", 1<<20)
		st := m.Run(computeTask(200000), memoryTask(a))
		return st.ProcCycles[0], st.ProcCycles[1]
	}
	a0, b0 := run()
	for i := 0; i < 3; i++ {
		a, b := run()
		if a != a0 || b != b0 {
			t.Fatalf("nondeterministic run: (%d,%d) vs (%d,%d)", a, b, a0, b0)
		}
	}
}

func TestVirtualTimeMonotone(t *testing.T) {
	m := MustNew(PentiumD8300())
	a := m.AS.Alloc("a", 1<<20)
	m.Run(func(c *CPU) {
		prev := c.Now()
		for i := 0; i < 1000; i++ {
			c.Compute(10)
			c.Read(a.Base+uint64(i*128), 8, HintNone)
			if c.Now() < prev {
				t.Errorf("clock went backwards: %d < %d", c.Now(), prev)
				return
			}
			prev = c.Now()
		}
	})
}

func TestRunStatsAccounting(t *testing.T) {
	m := MustNew(PentiumD8300())
	st := m.Run(computeTask(10000))
	if st.ComputeCycles[0] == 0 {
		t.Fatal("compute cycles not accounted")
	}
	if st.ProcCycles[0] != st.Cycles {
		t.Fatalf("single proc: ProcCycles %d != Cycles %d", st.ProcCycles[0], st.Cycles)
	}
}

func TestMachineResetTiming(t *testing.T) {
	m := MustNew(PentiumD8300())
	a := m.AS.Alloc("a", 1<<20)
	m.Run(memoryTask(a))
	if m.Mem.Bus.Stats.Bytes == 0 {
		t.Fatal("no bus traffic recorded")
	}
	m.ResetTiming()
	if m.Mem.Bus.Stats.Bytes != 0 || m.Mem.Bus.BusyUntil() != 0 {
		t.Fatal("ResetTiming left bus state")
	}
	// Caches stay warm after ResetTiming (the most recent NT lines are
	// still resident; earlier ones were recycled through the NT ways).
	last := a.End() - 128
	if !m.Mem.L2.Contains(last) {
		t.Fatal("ResetTiming flushed caches")
	}
	m.ColdStart()
	if m.Mem.L2.Contains(last) {
		t.Fatal("ColdStart kept caches warm")
	}
}

func TestRunZeroOrTooManyThreadsPanics(t *testing.T) {
	m := MustNew(PentiumD8300())
	for _, fns := range [][]func(*CPU){
		{},
		{func(*CPU) {}, func(*CPU) {}, func(*CPU) {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run with %d threads did not panic", len(fns))
				}
			}()
			m.Run(fns...)
		}()
	}
}

func TestIdleAdvancesClock(t *testing.T) {
	m := MustNew(PentiumD8300())
	m.Run(func(c *CPU) {
		c.Idle(12345)
		if c.Now() != 12345 {
			t.Errorf("Idle: now=%d", c.Now())
		}
	})
}

func TestEpochContinuesAcrossRuns(t *testing.T) {
	m := MustNew(PentiumD8300())
	m.Run(computeTask(1000))
	var start uint64
	m.Run(func(c *CPU) { start = c.Now() })
	if start < 1000 {
		t.Fatalf("second run started at %d, want >= 1000", start)
	}
}
