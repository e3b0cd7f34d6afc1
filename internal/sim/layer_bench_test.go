package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Host-cost microbenchmarks for the simulator's per-access layers: what
// one TLB translation, one cache lookup or fill, one prefetch claim and
// one engine handoff cost the host, independent of any workload. Each
// sub-benchmark replays a fixed pre-drawn address sequence so the
// figures compare across commits.

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

type cacheGeom struct {
	name                     string
	bytes, ways, line, ntWay int
}

// cacheGeoms are the L1 and L2 geometries of PentiumD8300.
func cacheGeoms() []cacheGeom {
	cfg := PentiumD8300()
	return []cacheGeom{
		{"L1", cfg.L1Bytes, cfg.L1Ways, cfg.L1Line, 1},
		{"L2", cfg.L2Bytes, cfg.L2Ways, cfg.L2Line, cfg.L2NTWays},
	}
}

// sweepLines returns 2*ways distinct lines for every set of the cache,
// in rounds that visit each set once in a random order, so that cycling
// through them misses on every access under LRU: a set sees its 2*ways
// lines in a fixed cyclic order. Their count is a power of two.
func sweepLines(rng *rand.Rand, g cacheGeom) []Addr {
	nsets, ways, line := g.bytes/(g.ways*g.line), g.ways, g.line
	addrs := make([]Addr, 0, 2*ways*nsets)
	for r := 0; r < 2*ways; r++ {
		for _, s := range rng.Perm(nsets) {
			// Tag r of set s: the cache spans nsets*line bytes a way.
			addrs = append(addrs, Addr((r*nsets+s)*line))
		}
	}
	return addrs
}

// BenchmarkCacheLookup times a Lookup, plus the Fill on a miss. The L1
// and L2 cases draw 4,096 random lines from a footprint twice the
// cache: the L1's 4,096 draws cover its 512-line footprint, so about
// half miss, but the L2's 8,192 lines hold all 4,096, so after warm-up
// that case times hits only. L2miss cycles through twice the L2's lines
// in an order that makes every lookup miss and fill.
func BenchmarkCacheLookup(b *testing.B) {
	for _, g := range cacheGeoms() {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			addrs := make([]Addr, 4096)
			for i := range addrs {
				addrs[i] = Addr(rng.Intn(2*g.bytes/g.line) * g.line)
			}
			benchLookup(b, NewCache(g.name, g.bytes, g.ways, g.line, g.ntWay), addrs)
		})
	}
	g := cacheGeoms()[1]
	b.Run("L2miss", func(b *testing.B) {
		addrs := sweepLines(rand.New(rand.NewSource(1)), g)
		benchLookup(b, NewCache(g.name, g.bytes, g.ways, g.line, g.ntWay), addrs)
	})
}

func benchLookup(b *testing.B, c *Cache, addrs []Addr) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(len(addrs)-1)]
		if !c.Lookup(a, false) {
			c.Fill(a, false, HintNone)
		}
	}
}

// BenchmarkCacheFill times fillMiss alone, the victim choice and
// install of a miss, at both geometries: it cycles through twice the
// cache's lines in an order under which every line is absent when it
// is filled, so the set is always full and every fill evicts.
func BenchmarkCacheFill(b *testing.B) {
	for _, g := range cacheGeoms() {
		b.Run(g.name, func(b *testing.B) {
			addrs := sweepLines(rand.New(rand.NewSource(1)), g)
			c := NewCache(g.name, g.bytes, g.ways, g.line, g.ntWay)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.fillMiss(addrs[i&(len(addrs)-1)], false, HintNone)
			}
		})
	}
}

// BenchmarkPrefetcherClaim times Claim against 64 pending prefetches,
// the middle of what the registry apps keep in flight: "miss" claims
// lines none of which is pending (the usual case, as every L2 miss
// asks), "hit" claims a pending line and issues it again.
func BenchmarkPrefetcherClaim(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []Addr {
		lines := make([]Addr, n)
		for i := range lines {
			lines[i] = Addr(rng.Int63()) &^ 127
		}
		return lines
	}
	pending, absent := draw(64), draw(4096)
	for _, hit := range []bool{false, true} {
		name := "miss"
		if hit {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			p := NewPrefetcher(PentiumD8300())
			for _, l := range pending {
				p.pending.insert(l, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !hit {
					p.Claim(absent[i&(len(absent)-1)])
					continue
				}
				l := pending[i&(len(pending)-1)]
				arrival, _ := p.Claim(l)
				p.pending.insert(l, arrival)
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
