package streamd

import (
	"net/http"
	"sort"
	"testing"
	"time"
)

// hitWindow is how many consecutive jobs one latency window holds, as
// in perfbench's hit_p50_ms.
const hitWindow = 100

// BenchmarkStreamdHit times one cache-hit job over loopback HTTP: the
// submit of a spec whose payload is already cached, then a blocking
// result?wait=1. Besides ns/op it reports p50-ms, the median latency
// of the fastest window of hitWindow jobs: the host's speed drifts
// from one window to the next, and the fastest window measures the
// service rather than the drift.
func BenchmarkStreamdHit(b *testing.B) {
	_, hs := newTestServer(b, Options{Workers: 2})
	spec := quickSpec()
	job := func(want string) float64 {
		t0 := time.Now()
		_, st, _ := submit(b, hs, spec)
		id, _ := st["id"].(string)
		code, _, h := fetchResult(b, hs, id)
		if code != http.StatusOK || h.Get("X-Streamd-Cache") != want {
			b.Fatalf("job %q: status %d, cache %q, want 200 and %q", id, code, h.Get("X-Streamd-Cache"), want)
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	job("miss")
	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat = append(lat, job("hit"))
	}
	b.StopTimer()
	b.ReportMetric(fastestWindowMedian(lat, hitWindow), "p50-ms")
}

// fastestWindowMedian returns the smallest median over consecutive
// windows of k samples, or the median of all of them if there are
// fewer than k.
func fastestWindowMedian(xs []float64, k int) float64 {
	k = min(k, len(xs))
	best := 0.0
	for i := 0; k > 0 && i+k <= len(xs); i += k {
		w := append([]float64(nil), xs[i:i+k]...)
		sort.Float64s(w)
		m := w[k/2]
		if k%2 == 0 {
			m = (w[k/2-1] + w[k/2]) / 2
		}
		if i == 0 || m < best {
			best = m
		}
	}
	return best
}
