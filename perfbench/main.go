// Command perfbench is the repository's benchmark: one in-process
// program that runs a workload for a fixed time, checks every output,
// and prints every metric by name with its unit. See README.md.
//
//	perfbench --workload sim-irregular --seed 3 --seconds 50 --trace 0 --out dir
//
// run.sh builds it and sets --out; temporary files and spans go there.
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it records spans around every call into a
// layer, attaches obs registries, and prints the per-layer metrics.
// The last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	div      int    // problem-size divisor: 1 = full size
	out      string // directory for temporary files and the span dump
}

// Job sizes of the service phase at full size.
const (
	missN = 20000
	hitN  = 2000
)

// deadline bounds a run, so that a hang becomes a reported failure
// well inside the 180 s a run may take.
const deadline = 170 * time.Second

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	var record int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&o.div, "div", 1, "divide problem sizes by this (1 = full size)")
	flag.StringVar(&o.out, "out", "", "directory for temporary files and spans (required)")
	flag.IntVar(&record, "record-golden", 0, "print golden.json with the cycles of seeds 0..n-1 recorded at this -div, and exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.out == "" && record == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --out is required")
		return 2
	}
	// One processor: the simulator's two contexts and the service's
	// client and server then hand over on one thread instead of waking
	// each other across cores, which on a shared host makes their
	// timings depend on the host's scheduler.
	runtime.GOMAXPROCS(1)

	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if record > 0 {
		g, err := recordGolden(golden, o.div, record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		b, _ := json.MarshalIndent(g, "", " ") // cannot fail: maps of strings and numbers
		fmt.Println(string(b))
		return 0
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// A hang becomes a reported failure: past the deadline the process
	// removes its files and exits non-zero without printing a result.
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", o.workload, deadline)
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	rep, err := runWorkload(ctx, o, golden, tmp, logf)
	if err != nil {
		logf("%v", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
