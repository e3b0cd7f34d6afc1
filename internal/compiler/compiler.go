// Package compiler lowers a validated SDF graph to the task schedule
// the paper's hand-compilation produced (§IV-A): it strip-mines every
// stream so the working set of strips fits the SRF, double-buffers the
// strips so gathers overlap kernels, optionally fuses kernels that
// share a strip, selects only the record fields kernels use (that
// happened at graph construction), and emits Gather/Kernel/Scatter
// tasks with bit-vector-ready dependence lists for the distributed work
// queue.
package compiler

import (
	"fmt"
	"strings"

	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
	"streamgpp/internal/wq"
)

// Options control compilation.
type Options struct {
	// SRF is the stream register file to allocate strips from. Required.
	SRF *svm.SRF
	// StripElems forces a strip size in elements; 0 selects it
	// automatically from the SRF capacity and the phase's stream widths.
	StripElems int
	// DoubleBuffer enables buffer renaming so a strip can be gathered
	// while the previous one is computed on (§II-B). Disabling it is an
	// ablation: every stream gets one buffer and gathers serialise
	// behind the kernels that read them.
	DoubleBuffer bool
	// FuseKernels merges all kernels of a phase into one compute task
	// per strip, eliminating per-kernel dispatch (the paper fuses
	// streamFEM's GatherCell/AdvanceCell this way).
	FuseKernels bool
	// Ops configures the bulk memory operations.
	Ops svm.OpConfig
	// MaxStripElems caps the automatic strip size (0 = no cap).
	MaxStripElems int
	// StripScale rescales the strip size after selection (automatic or
	// forced); 0 or 1 leaves it untouched. Scales below 1 are always
	// safe; scales above 1 can exceed the SRF budget and fail buffer
	// allocation. Used by the what-if machinery to re-run an experiment
	// with smaller strips.
	StripScale float64
}

// DefaultOptions returns the configuration used by the evaluation:
// double buffering on, fusion on, non-temporal bulk ops.
func DefaultOptions(srf *svm.SRF) Options {
	return Options{SRF: srf, DoubleBuffer: true, FuseKernels: true, Ops: svm.DefaultOps()}
}

// Program is a compiled stream program: the ordered task list plus the
// per-phase strip plan.
type Program struct {
	Graph   *sdf.Graph
	Phases  []*PhasePlan
	Tasks   []wq.Task
	Options Options
}

// OutputArrays returns the distinct arrays the program's scatters
// write, in graph order. Gathers and kernels are idempotent, so these
// arrays are the only simulated state a run mutates — the snapshot a
// caller needs to make an aborted run restartable from scratch.
func (p *Program) OutputArrays() []*svm.Array {
	seen := map[*svm.Array]bool{}
	var out []*svm.Array
	for _, e := range p.Graph.Edges {
		if e.Scatter == nil || seen[e.Scatter.Array] {
			continue
		}
		seen[e.Scatter.Array] = true
		out = append(out, e.Scatter.Array)
	}
	return out
}

// PhasePlan records how one phase was strip-mined.
type PhasePlan struct {
	Phase         *sdf.Phase
	StripElems    int
	Strips        int
	BytesPerStrip int
	Fused         bool
}

// Compile lowers the graph. The SRF is Reset and reused across phases
// (phases are separated by barriers, so their strips never coexist).
func Compile(g *sdf.Graph, opt Options) (*Program, error) {
	if opt.SRF == nil {
		return nil, fmt.Errorf("compiler: Options.SRF is required")
	}
	if opt.Ops.MLP == 0 {
		opt.Ops = svm.DefaultOps()
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	phases, err := g.Phases()
	if err != nil {
		return nil, err
	}
	if err := checkIntraPhaseArrayHazards(phases); err != nil {
		return nil, err
	}

	p := &Program{Graph: g, Options: opt}
	sched := &scheduler{prog: p, opt: opt}
	for _, ph := range phases {
		plan, err := planPhase(ph, opt)
		if err != nil {
			return nil, err
		}
		p.Phases = append(p.Phases, plan)
		sched.emitPhase(plan)
	}
	return p, nil
}

// planPhase picks the strip size, allocates SRF buffers for every edge
// of the phase and binds each edge's stream to a ring of nbuf strips
// where the schedule allows it (see ringSafe).
func planPhase(ph *sdf.Phase, opt Options) (*PhasePlan, error) {
	edges := ph.Edges()
	bytesPerElem := 0
	for _, e := range edges {
		bytesPerElem += e.Stream.ElemBytes()
	}
	nbuf := 1
	if opt.DoubleBuffer {
		nbuf = 2
	}
	s := opt.StripElems
	if s <= 0 {
		// Reserve the per-buffer alignment slack (each allocation
		// rounds up to a cache line).
		budget := int(opt.SRF.Capacity()) - len(edges)*nbuf*64
		if budget < 0 {
			budget = 0
		}
		s = budget / (bytesPerElem * nbuf)
		if opt.MaxStripElems > 0 && s > opt.MaxStripElems {
			s = opt.MaxStripElems
		}
	}
	if opt.StripScale > 0 && opt.StripScale != 1 {
		s = int(float64(s)*opt.StripScale + 0.5)
	}
	if s > ph.N {
		s = ph.N
	}
	if s < 1 {
		return nil, fmt.Errorf("compiler: phase %d needs %d bytes per element ×%d buffers — too wide for the %d-byte SRF",
			ph.Index, bytesPerElem, nbuf, opt.SRF.Capacity())
	}

	// Allocate the double buffers. The SRF is reused phase to phase.
	fused := opt.FuseKernels && len(ph.Nodes) > 1
	opt.SRF.Reset()
	for _, e := range edges {
		bufs := make([]svm.SRFBuf, nbuf)
		for b := range bufs {
			buf, err := opt.SRF.Alloc(fmt.Sprintf("%s.%d", e.Name(), b), uint64(s*e.Stream.ElemBytes()))
			if err != nil {
				return nil, fmt.Errorf("compiler: phase %d strip size %d: %w", ph.Index, s, err)
			}
			bufs[b] = buf
		}
		ring := 0
		if ringSafe(ph, e, fused) {
			ring = nbuf * s
		}
		e.Stream.BindBuffers(bufs, ring)
	}
	return &PhasePlan{
		Phase:         ph,
		StripElems:    s,
		Strips:        ph.Strips(s),
		BytesPerStrip: bytesPerElem * s,
		Fused:         fused,
	}, nil
}

// ringSafe reports whether the schedule emitPhase builds finishes every
// reader of strip s of edge e before the task writing strip s+nbuf
// starts, so that e's stream can live in a ring of nbuf strips:
//   - a gathered edge: gather s+nbuf waits on strip s of every
//     consumer kernel, but not on a scatter that forwards the edge;
//   - a kernel output in a fused phase: one task per strip writes and
//     reads it, and task s+nbuf waits on task s through any gather of
//     the phase (buffer reuse) or any scatter of a kernel output;
//   - a kernel output in an unfused phase: producer s+nbuf waits only
//     on the edge's own scatter of strip s, so no kernel may read it.
func ringSafe(ph *sdf.Phase, e *sdf.Edge, fused bool) bool {
	switch {
	case e.Gather != nil:
		return e.Scatter == nil
	case !fused:
		return len(e.Consumers) == 0
	case len(ph.Ins) > 0:
		return true
	}
	for _, out := range ph.Outs {
		if out.Producer != nil {
			return true
		}
	}
	return false
}

// checkIntraPhaseArrayHazards rejects graphs where a phase gathers from
// an array it also scatters to through an index (the strip alignment
// guarantee only holds for sequential access).
func checkIntraPhaseArrayHazards(phases []*sdf.Phase) error {
	for _, ph := range phases {
		written := map[*svm.Array]*sdf.Edge{}
		for _, e := range ph.Outs {
			written[e.Scatter.Array] = e
		}
		for _, e := range ph.Ins {
			w, ok := written[e.Gather.Array]
			if !ok {
				continue
			}
			if e.Gather.Index != nil || w.Scatter.Index != nil {
				return fmt.Errorf("compiler: phase %d both gathers (%s) and scatters (%s) array %s with indexed access — strips are not alignment-safe; route through a second array",
					ph.Index, e.Name(), w.Name(), e.Gather.Array.Name)
			}
		}
	}
	return nil
}

// scheduler emits the software-pipelined task list.
type scheduler struct {
	prog *Program
	opt  Options

	nextID int
	// IDs of all tasks in the final two strips of the previous phase;
	// transitively these dominate the whole phase (see the buffer-reuse
	// dependence chains), so they form the inter-phase barrier.
	prevBarrier []int
}

func (sc *scheduler) id() int {
	id := sc.nextID
	sc.nextID++
	return id
}

func (sc *scheduler) emitPhase(plan *PhasePlan) {
	ph := plan.Phase
	S := plan.StripElems
	K := plan.Strips
	nbuf := 1
	if sc.opt.DoubleBuffer {
		nbuf = 2
	}

	nodes, _ := orderNodes(ph)

	gatherID := make(map[*sdf.Edge][]int, len(ph.Ins))
	scatterID := make(map[*sdf.Edge][]int, len(ph.Outs))
	kernelID := make(map[*sdf.Node][]int, len(nodes))
	var fusedID []int
	for _, e := range ph.Ins {
		gatherID[e] = make([]int, K)
	}
	for _, e := range ph.Outs {
		scatterID[e] = make([]int, K)
	}
	for _, n := range nodes {
		kernelID[n] = make([]int, K)
	}
	fusedID = make([]int, K)

	var barrier []int
	ops := sc.opt.Ops

	kernelTaskOf := func(n *sdf.Node, strip int) int {
		if plan.Fused {
			return fusedID[strip]
		}
		return kernelID[n][strip]
	}

	for s := 0; s < K; s++ {
		start := s * S
		n := S
		if start+n > ph.N {
			n = ph.N - start
		}
		strip, count := s, n

		// Gathers.
		for _, e := range ph.Ins {
			var deps []int
			// Buffer reuse: wait for the consumers that read this
			// buffer nbuf strips ago.
			if s >= nbuf {
				for _, cons := range e.Consumers {
					deps = append(deps, kernelTaskOf(cons, s-nbuf))
				}
			}
			// Inter-phase barrier (also covers array RAW).
			if s < nbuf {
				deps = append(deps, sc.prevBarrier...)
			}
			id := sc.id()
			gatherID[e][s] = id
			eLocal, b := e, e.Stream.Buffer(strip)
			g := eLocal.Gather
			sc.prog.Tasks = append(sc.prog.Tasks, wq.Task{
				ID:    id,
				Name:  fmt.Sprintf("%s#%d", e.Name(), s),
				Kind:  wq.Gather,
				Phase: ph.Index,
				Strip: s,
				Deps:  dedup(deps),
				Run: func(c *sim.CPU) {
					if len(g.Multi) > 0 {
						svm.GatherMulti(c, ops, eLocal.Stream, start, g.Array, g.Fields, g.Multi, start, count, b)
					} else {
						svm.Gather(c, ops, eLocal.Stream, start, g.Array, g.Fields, start, g.Index, start, count, b)
					}
				},
			})
		}

		// Kernels.
		runKernel := func(node *sdf.Node, c *sim.CPU) {
			ins := make([]*svm.Stream, len(node.Ins))
			for i, e := range node.Ins {
				ins[i] = e.Stream
			}
			outs := make([]*svm.Stream, len(node.Outs))
			for i, e := range node.Outs {
				outs[i] = e.Stream
			}
			node.Kernel.Run(c, ins, outs, start, count)
		}
		kernelDeps := func(node *sdf.Node) []int {
			var deps []int
			for _, e := range node.Ins {
				if e.Gather != nil {
					deps = append(deps, gatherID[e][s])
				} else if e.Producer != nil && !plan.Fused {
					deps = append(deps, kernelTaskOf(e.Producer, s))
				}
			}
			// Output buffer reuse: the scatter that drained this
			// buffer nbuf strips ago must be done.
			if s >= nbuf {
				for _, e := range node.Outs {
					if e.Scatter != nil {
						deps = append(deps, scatterID[e][s-nbuf])
					}
				}
			}
			if s < nbuf {
				deps = append(deps, sc.prevBarrier...)
			}
			return deps
		}

		if plan.Fused {
			var deps []int
			names := make([]string, len(nodes))
			for i, node := range nodes {
				deps = append(deps, kernelDeps(node)...)
				names[i] = node.Name()
			}
			id := sc.id()
			fusedID[s] = id
			nodesLocal := nodes
			sc.prog.Tasks = append(sc.prog.Tasks, wq.Task{
				ID:    id,
				Name:  fmt.Sprintf("%s#%d", strings.Join(names, "+"), s),
				Kind:  wq.KernelRun,
				Phase: ph.Index,
				Strip: s,
				Deps:  dedup(deps),
				Run: func(c *sim.CPU) {
					for _, node := range nodesLocal {
						runKernel(node, c)
					}
				},
			})
		} else {
			for _, node := range nodes {
				id := sc.id()
				kernelID[node][s] = id
				nodeLocal := node
				sc.prog.Tasks = append(sc.prog.Tasks, wq.Task{
					ID:    id,
					Name:  fmt.Sprintf("%s#%d", node.Name(), s),
					Kind:  wq.KernelRun,
					Phase: ph.Index,
					Strip: s,
					Deps:  dedup(kernelDeps(node)),
					Run:   func(c *sim.CPU) { runKernel(nodeLocal, c) },
				})
			}
		}

		// Scatters.
		for _, e := range ph.Outs {
			var deps []int
			if e.Producer != nil {
				deps = append(deps, kernelTaskOf(e.Producer, s))
			} else {
				// A gathered edge scattered straight back (a copy
				// program with no kernel in between is rejected by
				// sdf.Validate, so this is a kernel input being
				// forwarded): depend on its gather.
				deps = append(deps, gatherID[e][s])
			}
			id := sc.id()
			scatterID[e][s] = id
			eLocal, b := e, e.Stream.Buffer(strip)
			sct := eLocal.Scatter
			sc.prog.Tasks = append(sc.prog.Tasks, wq.Task{
				ID:    id,
				Name:  fmt.Sprintf("%s#%d", e.Name(), s),
				Kind:  wq.Scatter,
				Phase: ph.Index,
				Strip: s,
				Deps:  dedup(deps),
				Run: func(c *sim.CPU) {
					svm.Scatter(c, ops, eLocal.Stream, start, sct.Array, sct.Fields, start, sct.Index, start, count, sct.Mode, b)
				},
			})
		}

		// Final strips feed the next phase's barrier.
		if s >= K-nbuf {
			for _, node := range nodes {
				if plan.Fused {
					barrier = append(barrier, fusedID[s])
					break
				}
				barrier = append(barrier, kernelID[node][s])
			}
			for _, e := range ph.Outs {
				barrier = append(barrier, scatterID[e][s])
			}
		}
	}
	sc.prevBarrier = dedup(barrier)
}

// orderNodes returns the phase's kernels in graph topological order.
func orderNodes(ph *sdf.Phase) ([]*sdf.Node, error) {
	// Phase.Nodes is already in the graph's topological order.
	return ph.Nodes, nil
}

func dedup(ids []int) []int {
	if len(ids) < 2 {
		return ids
	}
	seen := make(map[int]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Summary renders the strip plan, for experiment logs.
func (p *Program) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s: %d tasks, %d phases\n", p.Graph.Name, len(p.Tasks), len(p.Phases))
	for _, pl := range p.Phases {
		fused := ""
		if pl.Fused {
			fused = ", fused"
		}
		fmt.Fprintf(&sb, "  phase %d: N=%d strip=%d (%d strips, %d B/strip%s)\n",
			pl.Phase.Index, pl.Phase.N, pl.StripElems, pl.Strips, pl.BytesPerStrip, fused)
	}
	return sb.String()
}
