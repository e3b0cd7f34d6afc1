package sim

import (
	"maps"
	"math/rand"
	"testing"
)

// entries returns the table's contents as a map, for comparison with
// the shadow map.
func (t *pfTable) entries() map[Addr]uint64 {
	m := make(map[Addr]uint64, t.n)
	for _, e := range t.slots {
		if e.full {
			m[e.line] = e.arrival
		}
	}
	return m
}

// diffPending builds a Prefetcher from cfg, drives it through the
// operations encoded in ops (four bytes a step) over four streams of
// lineSize-byte lines, and holds its pending table to a Go map that
// shadows it: a Claim must return the map's arrival and consume the
// line, an Advance may only add lines, one per prefetch issued and bus
// transfer made, Reset and Machine.ResetTiming's clear empty it, and
// after every step the table must hold exactly the map's entries, each
// once. It returns the largest slot count the table reached.
func diffPending(t *testing.T, cfg Config, lineSize int, ops []byte) int {
	t.Helper()
	p, bus := NewPrefetcher(cfg), NewBus(cfg)
	want := map[Addr]uint64{}
	ls := uint64(lineSize)
	// Streams start in four regions, the last ending at 2^64.
	bases := [4]Addr{0, 1 << 32, 1 << 63, -(256 * ls)}
	cursor := bases
	var now uint64
	maxSlots := len(p.pending.slots)
	for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
		op, a, b := ops[0], ops[1], ops[2]
		now += uint64(ops[3])
		s := a % 4
		stats, xfers := p.Stats, bus.Stats.Transfers
		claim := func(line Addr) {
			arrival, ok := p.Claim(line)
			wantArrival, wantOK := want[line]
			if arrival != wantArrival || ok != wantOK {
				t.Fatalf("step %d (op %#x): Claim(%#x) = %d, %v; map has %d, %v", step, op, line, arrival, ok, wantArrival, wantOK)
			}
			if ok != (p.Stats.UsefulHit == stats.UsefulHit+1) {
				t.Fatalf("step %d (op %#x): Claim(%#x) = %v but UsefulHit %d → %d", step, op, line, ok, stats.UsefulHit, p.Stats.UsefulHit)
			}
			delete(want, line)
		}
		switch op % 8 {
		case 0, 1, 2, 3:
			// A demand access: mostly the stream's next line, else a
			// jump within its region.
			if b&0x80 == 0 {
				cursor[s] += ls
			} else {
				cursor[s] = bases[s] + uint64(b&0x7f)*ls
			}
			p.Advance(int(op>>3&1), bus, now, cursor[s], lineSize, op&0x10 == 0)
			got := p.pending.entries()
			for line, arrival := range want {
				if g, ok := got[line]; !ok || g != arrival {
					t.Fatalf("step %d (op %#x): Advance changed pending line %#x: %d, %v; was %d", step, op, line, g, ok, arrival)
				}
			}
			if issued := p.Stats.Issued - stats.Issued; uint64(len(got)-len(want)) != issued {
				t.Fatalf("step %d (op %#x): Advance added %d pending lines, issued %d", step, op, len(got)-len(want), issued)
			}
			want = got
		case 4, 5, 6:
			// A claim at or ahead of the stream, where prefetches land.
			claim(cursor[s] + uint64(b%24)*ls)
		default:
			switch op >> 5 {
			case 0:
				p.Reset()
				clear(want)
			case 1:
				// Machine.ResetTiming drops only the pending prefetches.
				p.pending.clear()
				clear(want)
			default:
				claim(Addr(a)<<56 | Addr(b)<<8)
			}
		}
		if issued, made := p.Stats.Issued-stats.Issued, bus.Stats.Transfers-xfers; issued != made {
			t.Fatalf("step %d (op %#x): %d prefetches issued, %d bus transfers made", step, op, issued, made)
		}
		if got := p.pending.entries(); p.pending.n != len(got) || !maps.Equal(got, want) {
			t.Fatalf("step %d (op %#x): %d pending %v, map %v", step, op, p.pending.n, got, want)
		}
		maxSlots = max(maxSlots, len(p.pending.slots))
	}
	return maxSlots
}

// TestPrefetcherPendingMatchesMap holds the pending table to its Go map
// shadow on both machine configurations and on a deep, wide prefetcher
// that drives the table through several doublings.
func TestPrefetcherPendingMatchesMap(t *testing.T) {
	deep := PentiumD8300()
	deep.PFStreams, deep.PFDepth, deep.PFTrain = 8, 64, 1
	for i, cfg := range []Config{PentiumD8300(), ImprovedStream(), deep} {
		for _, lineSize := range []int{64, 128} {
			rng := rand.New(rand.NewSource(int64(10*i + lineSize)))
			ops := make([]byte, 4*20000)
			rng.Read(ops)
			slots := diffPending(t, cfg, lineSize, ops)
			if cfg.PFDepth == 64 && slots < 1<<(pfTableMinBits+2) {
				t.Errorf("pending table peaked at %d slots; the test no longer exercises its growth", slots)
			}
		}
	}
}

// FuzzPrefetcher is the randomized arm of TestPrefetcherPendingMatchesMap:
// for any detector count, depth and training threshold, and any
// sequence of demand accesses, claims and resets, the pending table
// must match its map shadow.
func FuzzPrefetcher(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint8(2), false, []byte("\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01\x04\x00\x01\x05"))
	f.Add(uint8(8), uint8(40), uint8(1), true, []byte("\x01\x01\x00\x07\x01\x01\x00\x07\x05\x01\x02\x00\x27\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, streams, depth, train uint8, wide bool, ops []byte) {
		cfg := PentiumD8300()
		cfg.PFStreams, cfg.PFDepth, cfg.PFTrain = int(streams%9), int(depth%65), 1+int(train%4)
		lineSize := 64
		if wide {
			lineSize = 128
		}
		diffPending(t, cfg, lineSize, ops)
	})
}
