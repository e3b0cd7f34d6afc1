// Command sdfdump renders the Synchronous Data Flow graphs of the
// registered apps (the diagrams of Figs. 3 and 10), the
// compiled strip plans, and a live snapshot of the distributed work
// queue mid-execution (Fig. 7).
//
// Usage:
//
//	sdfdump -app fem            # text rendering + strip plan
//	sdfdump -app cdp -dot       # Graphviz DOT on stdout
//	sdfdump -queue              # Fig. 7 work-queue snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"streamgpp/internal/advisor"
	"streamgpp/internal/apps"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
	"streamgpp/internal/wq"
)

// queueDemo reconstructs the Fig. 7 scenario: the two-kernel example
// program's tasks flowing through the distributed work queue with the
// memory thread running ahead of a slow kernel.
func queueDemo() {
	q := wq.New(wq.DefaultCapacity)
	nop := func(*sim.CPU) {}
	tasks := []wq.Task{
		{ID: 0, Name: "a0", Kind: wq.Gather, Run: nop},
		{ID: 1, Name: "b0", Kind: wq.Gather, Run: nop},
		{ID: 2, Name: "c0", Kind: wq.Gather, Run: nop},
		{ID: 3, Name: "1_0", Kind: wq.KernelRun, Deps: []int{0, 1, 2}, Run: nop},
		{ID: 4, Name: "x0", Kind: wq.Gather, Run: nop},
		{ID: 5, Name: "2_0", Kind: wq.KernelRun, Deps: []int{3, 4}, Run: nop},
		{ID: 6, Name: "y0", Kind: wq.Scatter, Deps: []int{5}, Run: nop},
		{ID: 7, Name: "a1", Kind: wq.Gather, Run: nop},
		{ID: 8, Name: "b1", Kind: wq.Gather, Run: nop},
	}
	for _, t := range tasks {
		if err := q.Enqueue(t); err != nil {
			panic(err)
		}
	}
	// The memory thread drains the gathers of strip 0 and starts on
	// strip 1; kernel1 completes; kernel2 is claimed and still running,
	// so the scatter Sy0 stays blocked — the Fig. 7 moment.
	for i := 0; i < 4; i++ { // Ga0 Gb0 Gc0 Gx0
		slot, _, _ := q.NextReady(wq.MemQueue)
		q.Complete(slot)
	}
	slot, _, _ := q.NextReady(wq.ComputeQueue) // K1_0
	q.Complete(slot)
	q.NextReady(wq.ComputeQueue)          // K2_0 claimed, still executing
	slot, _, _ = q.NextReady(wq.MemQueue) // Ga1
	q.Complete(slot)
	q.NextReady(wq.MemQueue) // Gb1 claimed

	fmt.Println("Fig. 7 snapshot (* = executing, ! = blocked on dependencies):")
	fmt.Print(q.Snapshot())
}

func main() {
	app := flag.String("app", "fem", "application graph to dump: "+strings.Join(apps.Keys(), ", "))
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of text")
	queue := flag.Bool("queue", false, "show the Fig. 7 distributed work-queue snapshot and exit")
	advise := flag.Bool("advise", false, "run the §V-A streaming-suitability analysis on the graph")
	flag.Parse()

	if *queue {
		queueDemo()
		return
	}

	a, ok := apps.ByKey(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "sdfdump: unknown app %q (%s)\n", *app, strings.Join(apps.Keys(), ", "))
		os.Exit(1)
	}
	// The graph comes from a run at the app's default size: the run
	// binds it to real arrays and checks both styles agree.
	res, err := a.Run(a.Defaults, exec.Defaults())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdfdump:", err)
		os.Exit(1)
	}
	g := res.Graph
	if *dot {
		fmt.Print(g.Dot())
		return
	}
	fmt.Print(g.String())
	fmt.Printf("producer-consumer edges: %d (%.1f KB of writeback avoided per pass)\n",
		len(g.ProducerConsumerEdges()), float64(g.SavedWritebackBytes())/1024)

	prog, err := compiler.Compile(g, compiler.DefaultOptions(svm.DefaultSRF(sim.MustNew(sim.PentiumD8300()))))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdfdump: compile:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(prog.Summary())

	if *advise {
		rep, err := advisor.Analyze(g, sim.PentiumD8300())
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdfdump: advise:", err)
			os.Exit(1)
		}
		fmt.Println()
		rep.Render(os.Stdout)
	}
}
