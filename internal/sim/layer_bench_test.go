package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Host-cost microbenchmarks for the simulator's per-access layers: what
// one TLB translation, one cache lookup and one engine handoff cost the
// host, independent of any workload. Each sub-benchmark replays a fixed
// pre-drawn address sequence so the figures compare across commits.

// BenchmarkTLBTranslate times Translate on a hit-heavy stream (random
// over a working set of half the TLB), a miss-heavy one (uniform over
// 16× its capacity) and a bulk-copy-like one (three interleaved
// sequential 8-byte streams, so consecutive lookups alternate between
// resident pages) at the Pentium D and ImprovedStream TLB sizes.
func BenchmarkTLBTranslate(b *testing.B) {
	for _, entries := range []int{64, 512} {
		for _, c := range []struct {
			name  string
			pages int // 0: three sequential streams
		}{{"hit", entries / 2}, {"miss", 16 * entries}, {"stream", 0}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, entries), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				addrs := make([]Addr, 4096)
				for i := range addrs {
					if c.pages == 0 {
						addrs[i] = Addr(i%3)<<24 + Addr(i/3)*8
						continue
					}
					addrs[i] = Addr(rng.Intn(c.pages))<<12 | Addr(rng.Intn(4096))
				}
				tlb := NewTLB(entries, 4096)
				for _, a := range addrs {
					tlb.Translate(a)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tlb.Translate(addrs[i&(len(addrs)-1)])
				}
			})
		}
	}
}

// BenchmarkCacheLookup times a Lookup, plus the Fill on a miss, over
// random lines of a footprint twice the cache, for the L1 and L2
// geometries of PentiumD8300.
func BenchmarkCacheLookup(b *testing.B) {
	cfg := PentiumD8300()
	for _, g := range []struct {
		name                     string
		bytes, ways, line, ntWay int
	}{
		{"L1", cfg.L1Bytes, cfg.L1Ways, cfg.L1Line, 1},
		{"L2", cfg.L2Bytes, cfg.L2Ways, cfg.L2Line, cfg.L2NTWays},
	} {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			addrs := make([]Addr, 4096)
			for i := range addrs {
				addrs[i] = Addr(rng.Intn(2*g.bytes/g.line) * g.line)
			}
			c := NewCache(g.name, g.bytes, g.ways, g.line, g.ntWay)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i&(len(addrs)-1)]
				if !c.Lookup(a, false) {
					c.Fill(a, false, HintNone)
				}
			}
		})
	}
}

// BenchmarkEnginePark times one forced park round trip: two contexts
// advance in lockstep one idle cycle at a time, so every Idle hands
// control to the engine and resumes the sibling. One op is one park.
func BenchmarkEnginePark(b *testing.B) {
	m := MustNew(PentiumD8300())
	idle := func(n int) func(*CPU) {
		return func(c *CPU) {
			for i := 0; i < n; i++ {
				c.Idle(1)
			}
		}
	}
	b.ResetTimer()
	m.Run(idle((b.N+1)/2), idle(b.N/2))
}
