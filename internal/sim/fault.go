package sim

import "streamgpp/internal/fault"

// SetFaultInjector attaches a fault injector to this machine. All
// machine-level fault hooks (latency spikes, dropped wakeups) and the
// executors' hooks draw from it. A nil injector (the default) leaves
// every hook disabled with zero timing effect.
func (m *Machine) SetFaultInjector(in *fault.Injector) { m.flt = in }

// FaultInjector returns the machine's fault injector, or nil.
func (m *Machine) FaultInjector() *fault.Injector { return m.flt }

// WakeupTimeouts returns how many times the engine had to wake a
// sleeper at its wait-budget deadline because every live context was
// asleep (a lost wakeup recovered by timeout). Cumulative across runs;
// only ever non-zero under fault injection.
func (m *Machine) WakeupTimeouts() uint64 { return m.wakeupTimeouts }

// faultSpike charges one injected memory-latency spike to the calling
// context, if the injector fires. Call sites are the scalar blocking
// access and the pipelined drain — shared by the bulk fast path and
// the reference path, so both see the same schedule.
func (c *CPU) faultSpike() {
	in := c.m.flt
	if in == nil {
		return
	}
	if in.Roll(fault.LatencySpike, c.p.now) {
		in.Annotate("sim.mem")
		d := in.SpikeCycles()
		c.p.memCycles += d
		c.p.now += d
	}
}
