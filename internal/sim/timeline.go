package sim

import "streamgpp/internal/obs"

// SetTimeline attaches a timeline to this machine (exec.Config.Timeline
// does so per run). Only stream-side activity samples into it — bulk
// memory pipes and the stream executors — so a regular-baseline machine
// sharing the timeline contributes nothing and the series stay monotone
// in the stream machine's virtual time.
func (m *Machine) SetTimeline(tl *obs.Timeline) { m.tl = tl }

// Timeline returns the machine's timeline, or nil.
func (m *Machine) Timeline() *obs.Timeline { return m.tl }
