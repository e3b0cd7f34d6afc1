package bench

import (
	"fmt"
	"io"

	"streamgpp/internal/sim"
)

// overlapWorkloads builds the compute and memory tasks of Fig. 6: a
// pure ALU burst and a bulk non-temporal stream over a region.
func computeBurst(ops int64) func(*sim.CPU) {
	return func(c *sim.CPU) { c.Compute(ops) }
}

func memoryStream(reg sim.Region) func(*sim.CPU) {
	return func(c *sim.CPU) {
		pipe := c.NewPipe(2, 1, sim.StateMemory)
		for a := reg.Base; a < reg.End(); a += 128 {
			pipe.Access(a, 128, false, sim.HintNonTemporal)
		}
		pipe.Drain()
	}
}

// Fig6 reproduces the computation/memory overlap experiment: both
// contexts computing, both streaming memory, and one of each, all
// normalised to running the two tasks serially in single-thread mode
// (= 100 units).
func Fig6(w io.Writer, o Options) error {
	bytes := uint64(8 << 20)
	if o.Quick {
		bytes = 2 << 20
	}

	// Calibrate the compute burst to the memory task's solo time so the
	// two halves are comparable (as in the paper's experiment).
	m := sim.MustNew(sim.PentiumD8300())
	region := m.AS.Alloc("stream", bytes)
	memSolo := m.Run(memoryStream(region)).Cycles
	ops := int64(memSolo)

	t := Table{
		Title:  "Fig. 6: normalised execution time (serial single-thread = 100)",
		Header: []string{"scenario", "time", "paper"},
	}
	scenario := func(name string, a, b func(*sim.CPU), expect string) {
		mm := sim.MustNew(sim.PentiumD8300())
		r := mm.AS.Alloc("stream", bytes)
		_ = r
		serial := mm.Run(func(c *sim.CPU) { a(c); b(c) }).Cycles
		mm.ColdStart()
		par := mm.Run(a, b).Cycles
		t.AddRow(name, fmt.Sprintf("%.0f", 100*float64(par)/float64(serial)), expect)
	}
	mk := func() (func(*sim.CPU), func(*sim.CPU)) {
		return computeBurst(ops), computeBurst(ops)
	}
	_ = mk

	// a. compute ∥ compute
	scenario("compute + compute", computeBurst(ops), computeBurst(ops), "~70–80 (20–30% saving)")
	// b. memory ∥ memory — two distinct regions.
	{
		mm := sim.MustNew(sim.PentiumD8300())
		r1 := mm.AS.Alloc("s1", bytes)
		r2 := mm.AS.Alloc("s2", bytes)
		serial := mm.Run(func(c *sim.CPU) { memoryStream(r1)(c); memoryStream(r2)(c) }).Cycles
		mm.ColdStart()
		par := mm.Run(memoryStream(r1), memoryStream(r2)).Cycles
		t.AddRow("memory + memory", fmt.Sprintf("%.0f", 100*float64(par)/float64(serial)), "~106 (6% slower)")
	}
	// c. compute ∥ memory
	{
		mm := sim.MustNew(sim.PentiumD8300())
		r1 := mm.AS.Alloc("s1", bytes)
		serial := mm.Run(func(c *sim.CPU) { computeBurst(ops)(c); memoryStream(r1)(c) }).Cycles
		mm.ColdStart()
		par := mm.Run(computeBurst(ops), memoryStream(r1)).Cycles
		t.AddRow("compute + memory", fmt.Sprintf("%.0f", 100*float64(par)/float64(serial)), "~70–80 (20–30% saving)")
	}
	t.Render(w)
	return nil
}

// Fig8 reproduces the busy-waiting comparison: one context runs a
// compute or memory task while the other waits with PAUSE or
// MONITOR/MWAIT; times are normalised to the task running alone
// (= 100). The dispatch latency of each mechanism is also measured.
func Fig8(w io.Writer, o Options) error {
	bytes := uint64(8 << 20)
	ops := int64(4_000_000)
	if o.Quick {
		bytes = 2 << 20
		ops = 1_000_000
	}

	t := Table{
		Title:  "Fig. 8: task time with a busy-waiting sibling (solo = 100)",
		Header: []string{"waiting via", "compute task", "memory task", "dispatch cycles"},
	}
	measure := func(policy sim.WaitPolicy) (comp, mem float64, dispatch uint64) {
		// Compute task with waiting sibling.
		m := sim.MustNew(sim.PentiumD8300())
		solo := m.Run(computeBurst(ops)).Cycles
		m.ResetTiming()
		ev := m.NewEvent()
		done := false
		var notified, woke uint64
		st := m.Run(
			func(c *sim.CPU) {
				c.Compute(ops)
				done = true
				notified = c.Now()
				c.Signal(ev)
			},
			func(c *sim.CPU) {
				c.Wait(ev, policy, func() bool { return done })
				woke = c.Now()
			},
		)
		comp = 100 * float64(st.ProcCycles[0]) / float64(solo)
		dispatch = woke - notified

		// Memory task with waiting sibling.
		m2 := sim.MustNew(sim.PentiumD8300())
		reg := m2.AS.Alloc("s", bytes)
		solo2 := m2.Run(memoryStream(reg)).Cycles
		m2.ColdStart()
		ev2 := m2.NewEvent()
		done2 := false
		st2 := m2.Run(
			func(c *sim.CPU) {
				memoryStream(reg)(c)
				done2 = true
				c.Signal(ev2)
			},
			func(c *sim.CPU) {
				c.Wait(ev2, policy, func() bool { return done2 })
			},
		)
		mem = 100 * float64(st2.ProcCycles[0]) / float64(solo2)
		return comp, mem, dispatch
	}

	for _, p := range []struct {
		policy sim.WaitPolicy
		name   string
	}{
		{sim.PolicyPause, "PAUSE"},
		{sim.PolicyMwait, "MONITOR/MWAIT"},
		{sim.PolicyOS, "OS primitives"},
	} {
		comp, mem, disp := measure(p.policy)
		t.AddRow(p.name, fmt.Sprintf("%.0f", comp), fmt.Sprintf("%.0f", mem), fmt.Sprintf("%d", disp))
	}
	t.Note("paper: PAUSE dispatches in ~175 cycles but greatly slows a sibling compute task;")
	t.Note("MONITOR/MWAIT dispatches in ~680 cycles with negligible interference; OS wakeups cost tens of thousands.")
	t.Render(w)
	return nil
}
