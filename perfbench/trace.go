package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one bracketed call into a layer's public function. Spans of
// one app run (sim phase) or one job (service phase) share a trace id;
// Parent is the ID of the span that made the call, 0 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  uint32 `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once it ends. A nil *tracer records nothing, which is how untraced
// runs keep their measurements free of span bookkeeping.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces uint32 // trace ids handed out
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id (0 on a nil tracer).
func (t *tracer) newTrace() uint32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, trace uint32, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, so a caller can
// later aggregate just the spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, for the spans recorded since mark from, each span
// name's total self time: a span's duration minus the part of it that
// its child spans cover.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans[from:] {
		if s.Parent > int32(from) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans[from:] {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [start, end) the union of the intervals
// covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// durations returns the duration in nanoseconds of every span with the
// given name recorded since mark from.
func (t *tracer) durations(from int, name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
