package exec

import (
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
	"streamgpp/internal/wq"
)

// This file feeds the obs.Timeline sampler from the stream executors:
// per-queue work-queue depth, gather/compute overlap efficiency and
// recovery activity as functions of simulated time, plus a Poll that
// drives registered probes (the running program's SRF occupancy).
// Every method is nil-safe on a nil *tlSampler, so machines without a
// timeline pay one pointer check per hook and allocate nothing —
// preserving the fast path's byte-identity guarantees when sampling is
// off. Sampling itself only reads state (it never advances a clock), so
// even an attached timeline cannot change simulated timing.

// overlapTracker measures, incrementally, how much of the run's memory
// (gather/scatter) busy time coincided with kernel busy time — the
// same quantity Trace.OverlapEfficiency computes after the fact, but
// available mid-run so it can be sampled as a time series.
type overlapTracker struct {
	memActive  int
	kernActive int
	lastT      uint64
	memBusy    uint64
	kernBusy   uint64
	both       uint64
}

// advance accrues busy/overlap time up to t. Cross-context clock skew
// (a sample slightly in the past) is clamped rather than accrued.
func (o *overlapTracker) advance(t uint64) {
	if t <= o.lastT {
		return
	}
	dt := t - o.lastT
	if o.memActive > 0 {
		o.memBusy += dt
	}
	if o.kernActive > 0 {
		o.kernBusy += dt
	}
	if o.memActive > 0 && o.kernActive > 0 {
		o.both += dt
	}
	o.lastT = t
}

func (o *overlapTracker) start(k wq.Kind, t uint64) {
	o.advance(t)
	if k == wq.KernelRun {
		o.kernActive++
	} else {
		o.memActive++
	}
}

func (o *overlapTracker) end(k wq.Kind, t uint64) {
	o.advance(t)
	if k == wq.KernelRun {
		if o.kernActive > 0 {
			o.kernActive--
		}
	} else if o.memActive > 0 {
		o.memActive--
	}
}

// efficiency returns overlap time over the smaller busy total so far —
// 1.0 means the cheaper side has been perfectly hidden (cf.
// Trace.OverlapEfficiency).
func (o *overlapTracker) efficiency() float64 {
	denom := o.memBusy
	if o.kernBusy < denom {
		denom = o.kernBusy
	}
	if denom == 0 {
		return 0
	}
	return float64(o.both) / float64(denom)
}

// tlSampler bundles one stream run's resolved timeline handles.
type tlSampler struct {
	tl       *obs.Timeline
	m        *sim.Machine
	wqMem    *obs.Series
	wqComp   *obs.Series
	overlap  *obs.Series
	recovery *obs.Series
	// Cumulative per-level bandwidth series, sampled at task ends
	// (points both fast-path modes reach at identical times with
	// identical counter values — see coverage.go — so an attached
	// timeline keeps its fast-on/off byte-identity).
	bwL1   *obs.Series
	bwL2   *obs.Series
	bwDRAM *obs.Series
	ov     overlapTracker
}

// newTLSampler registers the program's SRF occupancy probe and
// resolves the run's series handles, returning nil when the machine has
// no timeline attached (the common, zero-cost case).
func newTLSampler(m *sim.Machine, srf *svm.SRF) *tlSampler {
	tl := m.Timeline()
	if tl == nil {
		return nil
	}
	tl.Probe("srf occupancy", func() float64 {
		return float64(srf.Used()) / float64(srf.Capacity())
	})
	return &tlSampler{
		tl:       tl,
		m:        m,
		wqMem:    tl.Series("wq mem pending"),
		wqComp:   tl.Series("wq compute pending"),
		overlap:  tl.Series("overlap efficiency"),
		recovery: tl.Series("recovery events"),
		bwL1:     tl.Series("bw L1 bytes"),
		bwL2:     tl.Series("bw L2 bytes"),
		bwDRAM:   tl.Series("bw DRAM bytes"),
	}
}

// taskStart notes a task beginning execution at cycle t.
func (ts *tlSampler) taskStart(k wq.Kind, t uint64) {
	if ts == nil {
		return
	}
	ts.ov.start(k, t)
}

// taskEnd notes a task completing at cycle t and takes the window's
// samples: overlap efficiency, per-queue depth (when a queue is in
// play) and every registered probe.
func (ts *tlSampler) taskEnd(k wq.Kind, t uint64, q *wq.DWQ) {
	if ts == nil {
		return
	}
	ts.ov.end(k, t)
	ts.overlap.Sample(t, ts.ov.efficiency())
	if q != nil {
		ts.wqMem.Sample(t, float64(q.PendingIn(wq.MemQueue)))
		ts.wqComp.Sample(t, float64(q.PendingIn(wq.ComputeQueue)))
	}
	bw := ts.m.Mem.BW
	ts.bwL1.Sample(t, float64(bw[0].Bytes[sim.LevelL1]+bw[1].Bytes[sim.LevelL1]))
	ts.bwL2.Sample(t, float64(bw[0].Bytes[sim.LevelL2]+bw[1].Bytes[sim.LevelL2]))
	ts.bwDRAM.Sample(t, float64(bw[0].Bytes[sim.LevelMem]+bw[1].Bytes[sim.LevelMem]))
	ts.tl.Poll(t)
}

// enqueued samples queue depth after the control thread pushed tasks.
func (ts *tlSampler) enqueued(t uint64, q *wq.DWQ) {
	if ts == nil {
		return
	}
	ts.wqMem.Sample(t, float64(q.PendingIn(wq.MemQueue)))
	ts.wqComp.Sample(t, float64(q.PendingIn(wq.ComputeQueue)))
	ts.tl.Poll(t)
}

// recoveryEvent samples the cumulative recovery count at cycle t
// (strip retries, scrubbed dependence bits and watchdog timeouts).
func (ts *tlSampler) recoveryEvent(t uint64, rec *RecoverySummary) {
	if ts == nil {
		return
	}
	ts.recovery.Sample(t, float64(rec.Retries+rec.ScrubbedDeps+rec.WatchdogTimeouts))
}
