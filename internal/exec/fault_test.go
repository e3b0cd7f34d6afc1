package exec

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"streamgpp/internal/compiler"
	"streamgpp/internal/fault"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
	"streamgpp/internal/wq"
)

// faultyFig2 is a fig2 setup whose machine carries a fault injector.
func faultyFig2(n int, cfg fault.Config) (*fig2Setup, *fault.Injector) {
	s := newFig2(n, 8)
	in := fault.New(cfg)
	s.m.SetFaultInjector(in)
	return s, in
}

func compileFig2(t *testing.T, s *fig2Setup) *compiler.Program {
	t.Helper()
	p, err := compiler.Compile(s.graph(), compiler.DefaultOptions(svm.DefaultSRF(s.m)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The acceptance criterion: an attached injector with every rate at
// zero must not move a single cycle, consume a single draw, or record
// any recovery activity relative to no injector at all.
func TestZeroRateInjectorByteIdentical(t *testing.T) {
	plain := newFig2(20000, 8)
	base := mustRun2(t, plain.m, compileFig2(t, plain), Defaults())

	s, in := faultyFig2(20000, fault.Config{Seed: 123})
	res := mustRun2(t, s.m, compileFig2(t, s), Defaults())

	if res.Cycles != base.Cycles {
		t.Fatalf("rate-0 injector moved cycles: %d vs %d", res.Cycles, base.Cycles)
	}
	if in.Draws() != 0 {
		t.Fatalf("rate-0 injector consumed %d draws", in.Draws())
	}
	if res.Recovery.Any() {
		t.Fatalf("rate-0 injector recorded recovery: %+v", res.Recovery)
	}
	for i := 0; i < plain.n; i++ {
		if s.y.At(i, 0) != plain.y.At(i, 0) {
			t.Fatalf("y[%d] differs under rate-0 injector", i)
		}
	}
}

// Injected kernel faults and poisoned strips must be absorbed by
// strip-level retry: the run completes, results are exactly the
// fault-free reference, and the retries are accounted.
func TestRetryAbsorbsStripFaults(t *testing.T) {
	cfg := fault.Config{Seed: 42}
	cfg.Rate[fault.KernelFault] = 0.15
	cfg.Rate[fault.PoisonedStrip] = 0.15
	cfg.MaxPerKind[fault.KernelFault] = 6
	cfg.MaxPerKind[fault.PoisonedStrip] = 6
	s, in := faultyFig2(20000, cfg)
	want := s.reference()

	res, err := RunStream2Ctx(s.m, compileFig2(t, s), Defaults())
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}
	for i := 0; i < s.n; i++ {
		if s.y.At(i, 0) != want[i] {
			t.Fatalf("y[%d] wrong after retries", i)
		}
	}
	if in.Total() == 0 {
		t.Fatal("no faults fired — test exercised nothing")
	}
	if res.Recovery.Retries == 0 || res.Recovery.Retries != in.Total() {
		t.Fatalf("retries %d, faults %d — every absorbed fault is one retry",
			res.Recovery.Retries, in.Total())
	}
	if res.Recovery.FaultsInjected != in.Total() {
		t.Fatalf("recovery attributes %d faults, injector fired %d",
			res.Recovery.FaultsInjected, in.Total())
	}
}

// Replaying the same seed must reproduce the identical fault trace and
// the identical cycle count — the debuggability core of the subsystem.
func TestFaultReplayIsByteIdentical(t *testing.T) {
	run := func() (uint64, string) {
		cfg := fault.Config{Seed: 7}
		cfg.Rate[fault.KernelFault] = 0.5
		cfg.MaxPerKind[fault.KernelFault] = 3
		cfg.Rate[fault.PoisonedStrip] = 0.3
		cfg.MaxPerKind[fault.PoisonedStrip] = 4
		cfg.Rate[fault.LatencySpike] = 0.05
		cfg.MaxPerKind[fault.LatencySpike] = 4
		s, in := faultyFig2(15000, cfg)
		res, err := RunStream2Ctx(s.m, compileFig2(t, s), Defaults())
		if err != nil {
			t.Fatalf("faulted run did not recover: %v", err)
		}
		return res.Cycles, in.TraceString()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 {
		t.Fatalf("replay cycles differ: %d vs %d", c1, c2)
	}
	if t1 != t2 || t1 == "" {
		t.Fatalf("replay fault traces differ:\n%s\nvs\n%s", t1, t2)
	}
}

// When retries exhaust, the guarded two-context run must degrade to the
// sequential schedule from restored array state and still produce the
// correct results, with the degradation accounted.
func TestDegradationTo1Ctx(t *testing.T) {
	cfg := fault.Config{Seed: 9}
	cfg.Rate[fault.KernelFault] = 1 // every kernel attempt faults...
	cfg.MaxPerKind[fault.KernelFault] = 5
	s, in := faultyFig2(10000, cfg)
	want := s.reference()

	ecfg := Defaults()
	ecfg.RetryLimit = 2 // ...so the budget exhausts on the first strip
	res, err := RunStream2Ctx(s.m, compileFig2(t, s), ecfg)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !res.Recovery.Degraded {
		t.Fatal("run did not degrade despite exhausted retries")
	}
	if res.Recovery.AbortedCycles == 0 {
		t.Fatal("aborted attempt's cycles not recorded")
	}
	if in.Injected(fault.KernelFault) == 0 {
		t.Fatal("no kernel faults fired")
	}
	for i := 0; i < s.n; i++ {
		if s.y.At(i, 0) != want[i] {
			t.Fatalf("y[%d] wrong after degradation", i)
		}
	}
}

// A degraded run's trace and progress must describe the sequential
// fallback: its events join no admission notes the aborted two-context
// attempt left behind (admission and start coincide, the edges are the
// declared dependencies), and the progress count restarts exactly once
// and ends at the schedule's size.
func TestDegradedRunTraceAndProgress(t *testing.T) {
	cfg := fault.Config{Seed: 9}
	cfg.Rate[fault.KernelFault] = 1
	cfg.MaxPerKind[fault.KernelFault] = 5
	s, _ := faultyFig2(10000, cfg)
	p := compileFig2(t, s)

	tr := &Trace{}
	var frames []ProgressFrame
	ecfg := Defaults()
	ecfg.RetryLimit = 2
	ecfg.Trace = tr
	ecfg.Progress = func(f ProgressFrame) { frames = append(frames, f) }
	res, err := RunStream2Ctx(s.m, p, ecfg)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !res.Recovery.Degraded {
		t.Fatal("run did not degrade despite exhausted retries")
	}

	declared := map[int][]int{}
	for _, task := range p.Tasks {
		declared[task.ID] = task.Deps
	}
	if len(tr.Events) < len(p.Tasks) {
		t.Fatalf("%d events for %d tasks", len(tr.Events), len(p.Tasks))
	}
	for _, ev := range tr.Events[len(tr.Events)-len(p.Tasks):] {
		if ev.Enqueue != ev.Start {
			t.Fatalf("fallback event %s: Enqueue %d != Start %d", ev.Name, ev.Enqueue, ev.Start)
		}
		if !slices.Equal(ev.Deps, declared[ev.ID]) {
			t.Fatalf("fallback event %s: Deps %v, declared %v", ev.Name, ev.Deps, declared[ev.ID])
		}
	}
	if len(tr.admissions) == 0 {
		t.Fatal("the aborted attempt left no admission notes; the test exercises nothing")
	}

	resets := 0
	for i := 1; i < len(frames); i++ {
		if frames[i].Done <= frames[i-1].Done {
			resets++
			if frames[i].Done != 1 {
				t.Fatalf("frame %d restarts at Done=%d, want 1", i, frames[i].Done)
			}
		}
	}
	if resets != 1 {
		t.Fatalf("Done reset %d times, want exactly once", resets)
	}
	if last := frames[len(frames)-1]; last.Done != last.Total || last.Total != len(p.Tasks) {
		t.Fatalf("final frame %+v, want Done == Total == %d", last, len(p.Tasks))
	}
}

// With degradation disabled, exhausted retries must surface as a
// RunError naming the task, strip, phase and cycle.
func TestRetriesExhaustedError(t *testing.T) {
	cfg := fault.Config{Seed: 9}
	cfg.Rate[fault.KernelFault] = 1
	cfg.MaxPerKind[fault.KernelFault] = 100
	s, _ := faultyFig2(10000, cfg)

	ecfg := Defaults()
	ecfg.RetryLimit = 2
	ecfg.DegradeTo1Ctx = false
	_, err := RunStream2Ctx(s.m, compileFig2(t, s), ecfg)
	if err == nil {
		t.Fatal("exhausted retries did not error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("cause = %v, want ErrRetriesExhausted", re.Err)
	}
	if re.Task == "" || re.Kind != "K" || re.Phase < 0 || re.Strip < 0 || re.Cycle == 0 {
		t.Fatalf("RunError missing context: %+v", re)
	}
	if msg := re.Error(); !strings.Contains(msg, re.Task) || !strings.Contains(msg, "phase") {
		t.Fatalf("rendered error lacks task/phase: %s", msg)
	}
}

// A task whose dependency was never enqueued must abort with an
// enqueue RunError naming the task — the former exec panic site.
func TestEnqueueErrorBecomesRunError(t *testing.T) {
	m := sim.MustNew(sim.PentiumD8300())
	p := &compiler.Program{Tasks: []wq.Task{
		{ID: 4, Name: "orphan#0", Kind: wq.KernelRun, Phase: 0, Strip: 0,
			Deps: []int{3}, Run: func(c *sim.CPU) {}},
	}}
	_, rerr := runStream2Attempt(m, p, Defaults())
	if rerr == nil {
		t.Fatal("bad dependency did not error")
	}
	if rerr.Op != "enqueue" || rerr.Task != "orphan#0" {
		t.Fatalf("RunError = %+v, want enqueue error naming orphan#0", rerr)
	}
}

// A schedule that genuinely cannot progress — here a bulk transfer
// stuck far past every budget — must be caught by the progress
// watchdog and reported as ErrWedged with the queue's dependence
// diagnosis, not hang or panic.
func TestWatchdogDetectsWedgedSchedule(t *testing.T) {
	m := sim.MustNew(sim.PentiumD8300())
	m.SetFaultInjector(fault.New(fault.Config{Seed: 1})) // arms the watchdog
	stuck := m.NewEvent()
	p := &compiler.Program{Tasks: []wq.Task{
		{ID: 0, Name: "gStuck#0", Kind: wq.Gather, Run: func(c *sim.CPU) {
			// A transfer that outlives every watchdog budget; its own
			// deadline bounds the simulation so the test terminates.
			c.WaitBudget(stuck, sim.PolicyMwait, 2_000_000, func() bool { return false })
		}},
		{ID: 1, Name: "kBlocked#0", Kind: wq.KernelRun, Deps: []int{0},
			Run: func(c *sim.CPU) {}},
	}}
	ecfg := Defaults()
	ecfg.WatchdogCycles = 100_000
	_, rerr := runStream2Attempt(m, p, ecfg)
	if rerr == nil {
		t.Fatal("wedged schedule not detected")
	}
	if !errors.Is(rerr, ErrWedged) || rerr.Op != "watchdog" {
		t.Fatalf("RunError = %+v, want watchdog/ErrWedged", rerr)
	}
	if !strings.Contains(rerr.Diag, "blocked on [0]") {
		t.Fatalf("diagnosis does not name the blocked dependence:\n%s", rerr.Diag)
	}
}

// The 1-context executor shares the retry machinery.
func TestRetry1Ctx(t *testing.T) {
	cfg := fault.Config{Seed: 5}
	cfg.Rate[fault.KernelFault] = 0.3
	cfg.MaxPerKind[fault.KernelFault] = 5
	s, in := faultyFig2(10000, cfg)
	want := s.reference()
	res, err := RunStream1Ctx(s.m, compileFig2(t, s), Defaults())
	if err != nil {
		t.Fatalf("faulted 1ctx run did not recover: %v", err)
	}
	if in.Total() == 0 || res.Recovery.Retries == 0 {
		t.Fatal("no faults absorbed")
	}
	for i := 0; i < s.n; i++ {
		if s.y.At(i, 0) != want[i] {
			t.Fatalf("y[%d] wrong after 1ctx retries", i)
		}
	}
}

// A sequential run never waits on the work queue, so the engine never
// wakes it at a deadline: the run's share of WakeupTimeouts is 0 even
// when every wakeup signal would be dropped.
func TestSequentialRunHasNoWakeupTimeouts(t *testing.T) {
	cfg := fault.Config{Seed: 5}
	cfg.Rate[fault.DroppedWakeup] = 1
	cfg.Rate[fault.KernelFault] = 0.3
	cfg.MaxPerKind[fault.KernelFault] = 5
	s, _ := faultyFig2(10000, cfg)
	res, err := RunStream1Ctx(s.m, compileFig2(t, s), Defaults())
	if err != nil {
		t.Fatalf("faulted 1ctx run did not recover: %v", err)
	}
	if res.Recovery.WakeupTimeouts != 0 || s.m.WakeupTimeouts() != 0 {
		t.Fatalf("sequential run woke on a deadline: %d (machine %d)",
			res.Recovery.WakeupTimeouts, s.m.WakeupTimeouts())
	}
}
