package obs

import (
	"fmt"
	"io"
)

// This file implements the temporal half of the observability layer: a
// cycle-windowed timeline sampler. Where the Registry answers "how much
// in total?", the Timeline answers "when?": it records time-series of
// SRF occupancy, work-queue depth, outstanding misses, overlap
// efficiency and recovery activity as a run unfolds, at a configurable
// simulated-cycle interval, and exports them as Perfetto counter
// tracks.
//
// Sampling is passive: a Sample or Poll call reads state and records a
// point, never advancing any simulated clock, so an attached timeline
// cannot perturb timing. All hooks are nil-guarded (a nil *Timeline or
// nil *Series is an inert no-op), so the zero-rate configuration keeps
// the hot loops allocation-free and the fast path's byte-identity
// guarantees intact.
//
// Like the instruments in registry.go, a Timeline is not internally
// synchronised: the sim engine serialises the simulated threads of one
// machine in virtual time, so attach a timeline only to runs whose
// samplers are serialised (one machine, or sequential machines).

// Point is one sample of a time series: the simulated cycle it was
// taken at and the sampled value.
type Point struct {
	T uint64
	V float64
}

// Series is one named time series. Samples are windowed: at most one
// point is recorded per interval window, and points are strictly
// monotone in T (a sample that would step backwards — cross-context
// clock skew — is dropped).
type Series struct {
	Name     string
	interval uint64
	lastWin  uint64 // window index + 1 of the last accepted sample
	lastT    uint64
	pts      []Point
}

// Sample records v at cycle t, subject to the window and monotonicity
// rules. Safe on a nil receiver (no-op), so call sites need no guard
// beyond holding a possibly-nil handle.
func (s *Series) Sample(t uint64, v float64) {
	if s == nil {
		return
	}
	iv := s.interval
	if iv == 0 {
		// A zero-value Series (constructed outside Timeline.Series)
		// samples every distinct cycle instead of dividing by zero.
		iv = 1
	}
	w := t/iv + 1
	if w == s.lastWin {
		return
	}
	if len(s.pts) > 0 && t <= s.lastT {
		return
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	s.lastWin = w
	s.lastT = t
}

// Due reports whether a sample at cycle t would be recorded — use it to
// skip computing an expensive value between windows. Nil-safe (false).
func (s *Series) Due(t uint64) bool {
	if s == nil {
		return false
	}
	iv := s.interval
	if iv == 0 {
		iv = 1
	}
	if t/iv+1 == s.lastWin {
		return false
	}
	return len(s.pts) == 0 || t > s.lastT
}

// Points returns the recorded samples, oldest first.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	return s.pts
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.pts)
}

// Last returns the most recent sample (zero Point when empty).
func (s *Series) Last() Point {
	if s == nil || len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[len(s.pts)-1]
}

// probe is a registered gauge read on every Poll window.
type probe struct {
	s  *Series
	fn func() float64
}

// Timeline is a set of cycle-windowed time series plus registered
// probes. Create one with NewTimeline and attach it to the simulated
// machines via exec.Config.Timeline (or sim.Machine.SetTimeline);
// the sim and exec layers then feed it during stream runs.
type Timeline struct {
	interval uint64
	series   map[string]*Series
	order    []string
	probes   []probe
	probeIdx map[string]int
	lastPoll uint64 // poll window index + 1
}

// DefaultSampleInterval is the default sampling window in simulated
// cycles: fine enough to resolve strip-level pipeline behaviour (strips
// run for tens of thousands of cycles), coarse enough that a full
// application trace stays a few thousand points per series.
const DefaultSampleInterval = 5000

// NewTimeline returns a timeline sampling at the given cycle interval
// (values < 1 are clamped to 1: every distinct cycle may sample).
func NewTimeline(intervalCycles uint64) *Timeline {
	if intervalCycles < 1 {
		intervalCycles = 1
	}
	return &Timeline{
		interval: intervalCycles,
		series:   map[string]*Series{},
		probeIdx: map[string]int{},
	}
}

// Interval returns the sampling window in cycles. Nil-safe (0).
func (tl *Timeline) Interval() uint64 {
	if tl == nil {
		return 0
	}
	return tl.interval
}

// Series returns the named series, creating it on first use. Nil-safe:
// a nil timeline returns a nil series, whose Sample is a no-op — so
// instrumentation sites resolve their handles once and sample
// unconditionally.
func (tl *Timeline) Series(name string) *Series {
	if tl == nil {
		return nil
	}
	s, ok := tl.series[name]
	if !ok {
		s = &Series{Name: name, interval: tl.interval}
		tl.series[name] = s
		tl.order = append(tl.order, name)
	}
	return s
}

// Probe registers a gauge function sampled into the named series on
// every Poll window. Re-registering a name replaces its function (a new
// machine's SRF supersedes a finished one's). Nil-safe no-op.
func (tl *Timeline) Probe(name string, fn func() float64) {
	if tl == nil || fn == nil {
		return
	}
	s := tl.Series(name)
	if i, ok := tl.probeIdx[name]; ok {
		tl.probes[i].fn = fn
		return
	}
	tl.probeIdx[name] = len(tl.probes)
	tl.probes = append(tl.probes, probe{s: s, fn: fn})
}

// Poll samples every registered probe at cycle t, at most once per
// interval window. Nil-safe no-op. The window check is one division, so
// polling from per-task hooks is cheap.
func (tl *Timeline) Poll(t uint64) {
	if tl == nil || len(tl.probes) == 0 {
		return
	}
	w := t/tl.interval + 1
	if w == tl.lastPoll {
		return
	}
	tl.lastPoll = w
	for i := range tl.probes {
		p := &tl.probes[i]
		p.s.Sample(t, p.fn())
	}
}

// Names returns the series names in creation order.
func (tl *Timeline) Names() []string {
	if tl == nil {
		return nil
	}
	return tl.order
}

// CounterPoints flattens every series into Perfetto counter samples,
// series in creation order, points in time order within each — the
// form WriteTraceEvents renders as stacked counter tracks.
func (tl *Timeline) CounterPoints() []CounterPoint {
	if tl == nil {
		return nil
	}
	n := 0
	for _, name := range tl.order {
		n += len(tl.series[name].pts)
	}
	out := make([]CounterPoint, 0, n)
	for _, name := range tl.order {
		for _, p := range tl.series[name].pts {
			out = append(out, CounterPoint{Name: name, T: p.T, V: p.V})
		}
	}
	return out
}

// WriteTo dumps every series as deterministic text — one header line
// per series plus one "cycle value" line per point — the byte-exact
// form the determinism tests compare across fast-path modes.
func (tl *Timeline) WriteTo(w io.Writer) (int64, error) {
	if tl == nil {
		return 0, nil
	}
	var total int64
	for _, name := range tl.order {
		s := tl.series[name]
		n, err := fmt.Fprintf(w, "series %q interval=%d points=%d\n", name, s.interval, len(s.pts))
		total += int64(n)
		if err != nil {
			return total, err
		}
		for _, p := range s.pts {
			n, err := fmt.Fprintf(w, "  %d %.9g\n", p.T, p.V)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Render writes a per-series summary (point count, span, last value).
func (tl *Timeline) Render(w io.Writer) {
	if tl == nil {
		return
	}
	width := 0
	for _, name := range tl.order {
		if len(name) > width {
			width = len(name)
		}
	}
	for _, name := range tl.order {
		s := tl.series[name]
		if len(s.pts) == 0 {
			fmt.Fprintf(w, "  %-*s (no samples)\n", width, name)
			continue
		}
		first, last := s.pts[0], s.pts[len(s.pts)-1]
		min, max := s.pts[0].V, s.pts[0].V
		for _, p := range s.pts {
			if p.V < min {
				min = p.V
			}
			if p.V > max {
				max = p.V
			}
		}
		fmt.Fprintf(w, "  %-*s %5d pts over [%d,%d]  min=%.4g max=%.4g last=%.4g\n",
			width, name, len(s.pts), first.T, last.T, min, max, last.V)
	}
}
