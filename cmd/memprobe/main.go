// Command memprobe characterises the simulated machine's memory
// system the way §III-A does: gather/scatter bandwidth as a function
// of record size, access pattern and cacheability hints (Fig. 5), for
// arbitrary parameter combinations.
//
// Usage:
//
//	memprobe                      # the full Fig. 5 sweep
//	memprobe -record 64 -random -nt
//	memprobe -record 16 -write -total 33554432
package main

import (
	"flag"
	"fmt"
	"os"

	"streamgpp/internal/bench"
	"streamgpp/internal/sim"
)

func main() {
	record := flag.Int("record", 0, "record size in bytes (0 = sweep 4..128)")
	random := flag.Bool("random", false, "random (indexed) access instead of sequential")
	write := flag.Bool("write", false, "scatter (stores) instead of gather (loads)")
	nt := flag.Bool("nt", false, "use non-temporal hints")
	total := flag.Uint64("total", 16<<20, "array footprint in bytes")
	flag.Parse()

	cfg := sim.PentiumD8300()
	fmt.Printf("machine: %s\n", sim.MustNew(cfg).Describe())

	if *record == 0 {
		if err := bench.Fig5(os.Stdout, bench.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "memprobe:", err)
			os.Exit(1)
		}
		return
	}
	p := bench.BandwidthProbe{
		RecordBytes: *record,
		Random:      *random,
		Write:       *write,
		NonTemporal: *nt,
		TotalBytes:  *total,
	}
	kind := "gather"
	if *write {
		kind = "scatter"
	}
	pattern := "sequential"
	if *random {
		pattern = "random"
	}
	hint := "plain"
	if *nt {
		hint = "non-temporal"
	}
	fmt.Printf("%s %s, %d-byte records, %s hints: %.3f GB/s useful\n",
		pattern, kind, *record, hint, p.Run())
}
