package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// opTimes is the time each named operation of one repeat took, in
// seconds.
type opTimes map[string]float64

func (o *opTimes) add(op string, d time.Duration) {
	if *o == nil {
		*o = opTimes{}
	}
	(*o)[op] += d.Seconds()
}

// sumOfFastest takes repeats of the same operations and returns the
// sum over the operations of each one's fastest repeat. An operation
// missing from a repeat, because an earlier one failed, is skipped.
func sumOfFastest(repeats []opTimes) float64 {
	fastest := opTimes{}
	for _, r := range repeats {
		for op, t := range r {
			if f, ok := fastest[op]; !ok || t < f {
				fastest[op] = t
			}
		}
	}
	var s float64
	for _, t := range fastest {
		s += t
	}
	return s
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// heapSampler tracks the peak of the runtime's live-heap metric: the
// bytes the last garbage collection found reachable. Unlike the
// allocated heap it does not depend on when collections happen to run.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	quit chan struct{}
	done chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// sample folds the metric's current value into the peak.
func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

// stop stops the sampler, waits for it to exit and returns the peak in
// bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	h.sample()
	return h.peak
}
