package svm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// The svm layer's share of the host cost model: host nanoseconds per
// element of Gather, GatherMulti and Scatter (ModeAdd, the residual
// scatter-add) over 1024-element strips of a 64Ki-record array, for
// three index patterns — sequential (Gather and Scatter pass no index
// array; GatherMulti's three arrays are the identity), runs (16-long
// delta-1 runs at random starts, the banded shape index-run lowering
// coalesces) and random — each on the fast path and on the reference
// path. Only the exported API is used, so the file also runs against
// older builds for paired comparisons.

const (
	benchRecs  = 1 << 16
	benchStrip = 1024
	benchMulti = 3
)

func benchIndex(pattern string, j int, rng *rand.Rand) []int32 {
	ix := make([]int32, benchRecs)
	for i := 0; i < benchRecs; {
		switch pattern {
		case "seq":
			ix[i] = int32((i + j*benchStrip) % benchRecs)
			i++
		case "runs":
			start := rng.Intn(benchRecs - 16)
			for e := 0; e < 16 && i < benchRecs; e++ {
				ix[i] = int32(start + e)
				i++
			}
		default:
			ix[i] = int32(rng.Intn(benchRecs))
			i++
		}
	}
	return ix
}

func benchBulkOp(b *testing.B, op, pattern string, fast bool) {
	m := sim.MustNew(sim.PentiumD8300())
	m.SetFastPath(fast)
	layout := svm.Layout("rec", svm.F("a", 8), svm.F("b", 8), svm.F("pad", 8))
	arr := svm.NewArray(m, "arr", layout, benchRecs)
	fields := []int{0, 1}
	nidx := 1
	if op == "GatherMulti" {
		nidx = benchMulti
	}
	var sfs []svm.Field
	for j := 0; j < nidx; j++ {
		sfs = append(sfs, svm.F("a", 8), svm.F("b", 8))
	}
	str := svm.NewStream("s", benchStrip, sfs...)
	buf, err := svm.DefaultSRF(m).Alloc("strip", uint64(benchStrip*str.ElemBytes()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var idxs []*svm.IndexArray
	if op == "GatherMulti" || pattern != "seq" {
		for j := 0; j < nidx; j++ {
			x := svm.NewIndexArray(m, fmt.Sprintf("idx%d", j), benchRecs)
			copy(x.Idx, benchIndex(pattern, j, rng))
			idxs = append(idxs, x)
		}
	}
	var idx *svm.IndexArray
	if len(idxs) > 0 {
		idx = idxs[0]
	}
	cfg := svm.DefaultOps()
	b.ResetTimer()
	t0 := time.Now()
	m.Run(func(c *sim.CPU) {
		for i := 0; i < b.N; i++ {
			start := (i * benchStrip) % benchRecs
			switch op {
			case "Gather":
				svm.Gather(c, cfg, str, 0, arr, fields, start, idx, start, benchStrip, buf)
			case "GatherMulti":
				svm.GatherMulti(c, cfg, str, 0, arr, fields, idxs, start, benchStrip, buf)
			default:
				svm.Scatter(c, cfg, str, 0, arr, fields, start, idx, start, benchStrip, svm.ModeAdd, buf)
			}
		}
	})
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(b.N*benchStrip), "ns/elem")
}

func benchBulkMatrix(b *testing.B, op string) {
	for _, pattern := range []string{"seq", "runs", "random"} {
		for _, fast := range []bool{true, false} {
			mode := map[bool]string{true: "fast", false: "reference"}[fast]
			b.Run(pattern+"/"+mode, func(b *testing.B) { benchBulkOp(b, op, pattern, fast) })
		}
	}
}

func BenchmarkGather(b *testing.B)      { benchBulkMatrix(b, "Gather") }
func BenchmarkGatherMulti(b *testing.B) { benchBulkMatrix(b, "GatherMulti") }
func BenchmarkScatter(b *testing.B)     { benchBulkMatrix(b, "Scatter") }
