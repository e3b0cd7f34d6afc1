package compiler_test

import (
	"strings"
	"testing"

	"streamgpp/internal/apps"
	"streamgpp/internal/compiler"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
	"streamgpp/internal/wq"
)

// TestRingEdgesAreOrdered compiles every registry app's graph with the
// default options and with each ablation that changes the schedule's
// shape. An edge may live in a ring of nbuf strips only if the task
// that writes strip s+nbuf depends, possibly transitively, on every
// reader of strip s: strip s+nbuf then overwrites strip s's slots only
// once nothing reads them. Every edge whose schedule lacks that order
// must keep full storage.
func TestRingEdgesAreOrdered(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*compiler.Options)
	}{
		{"default", func(*compiler.Options) {}},
		{"nofusion", func(o *compiler.Options) { o.FuseKernels = false }},
		{"nodouble", func(o *compiler.Options) { o.DoubleBuffer = false }},
		{"halfstrip", func(o *compiler.Options) { o.StripScale = 0.5 }},
	}
	small := map[string]int{"neo": 4096, "spas": 2000}
	for _, a := range apps.All() {
		p := a.Defaults
		if a.Micro {
			p.N = 20000
		} else if n, ok := small[a.Key]; ok {
			p.N = n
		}
		for _, v := range variants {
			t.Run(a.Key+"/"+v.name, func(t *testing.T) {
				// A fresh instance's graph has never been compiled.
				inst, err := a.Spec(p).New()
				if err != nil {
					t.Fatal(err)
				}
				opt := compiler.DefaultOptions(svm.DefaultSRF(sim.MustNew(sim.PentiumD8300())))
				v.mut(&opt)
				prog, err := compiler.Compile(inst.Graph(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if rings := checkRings(t, prog); rings == 0 && v.name == "default" {
					t.Fatal("no edge is ring-stored under the default options")
				}
			})
		}
	}
}

// checkRings checks every edge of the program against the ring rule
// and returns how many edges are ring-stored.
func checkRings(t *testing.T, prog *compiler.Program) int {
	t.Helper()
	nbuf := 1
	if prog.Options.DoubleBuffer {
		nbuf = 2
	}
	type key struct {
		phase, strip int
		kind         wq.Kind
		name         string
	}
	byKey := map[key]int{}
	deps := map[int][]int{}
	fused := map[[2]int]int{} // (phase, strip) → the fused kernel task
	for _, tk := range prog.Tasks {
		name, _, ok := strings.Cut(tk.Name, "#")
		if !ok {
			t.Fatalf("task name %q carries no strip number", tk.Name)
		}
		k := key{tk.Phase, tk.Strip, tk.Kind, name}
		if _, dup := byKey[k]; dup {
			t.Fatalf("two tasks named %q in phase %d", tk.Name, tk.Phase)
		}
		byKey[k] = tk.ID
		deps[tk.ID] = tk.Deps
		if tk.Kind == wq.KernelRun {
			fused[[2]int{tk.Phase, tk.Strip}] = tk.ID
		}
	}
	task := func(k key) int {
		id, ok := byKey[k]
		if !ok {
			t.Fatalf("schedule has no %v task %q in phase %d strip %d", k.kind, k.name, k.phase, k.strip)
		}
		return id
	}
	// reaches reports whether task from depends, possibly transitively,
	// on task to. Dependences point to lower IDs, which bounds the walk.
	reaches := func(from, to int) bool {
		seen := map[int]bool{}
		stack := []int{from}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if id == to {
				return true
			}
			for _, d := range deps[id] {
				if d >= to && !seen[d] {
					seen[d] = true
					stack = append(stack, d)
				}
			}
		}
		return false
	}

	rings := 0
	for _, plan := range prog.Phases {
		ph := plan.Phase
		kernel := func(n *sdf.Node, s int) int {
			if plan.Fused {
				return fused[[2]int{ph.Index, s}]
			}
			return task(key{ph.Index, s, wq.KernelRun, n.Name()})
		}
		for _, e := range ph.Edges() {
			writer := func(s int) int {
				if e.Gather != nil {
					return task(key{ph.Index, s, wq.Gather, e.Name()})
				}
				return kernel(e.Producer, s)
			}
			readers := func(s int) []int {
				var ids []int
				for _, c := range e.Consumers {
					ids = append(ids, kernel(c, s))
				}
				if e.Scatter != nil {
					ids = append(ids, task(key{ph.Index, s, wq.Scatter, e.Name()}))
				}
				return ids
			}
			ordered := true
			for s := 0; s < plan.Strips; s++ {
				for _, r := range readers(s) {
					if !reaches(r, writer(s)) {
						t.Fatalf("edge %s: a reader of strip %d does not wait for its writer", e.Name(), s)
					}
					if s+nbuf < plan.Strips && !reaches(writer(s+nbuf), r) {
						ordered = false
					}
				}
			}
			switch ring := e.Stream.Ring(); {
			case ring > 0 && !ordered:
				t.Errorf("phase %d edge %s: ring-stored, but the writer of strip s+%d does not wait for every reader of strip s",
					ph.Index, e.Name(), nbuf)
			case ring > 0 && ring != nbuf*plan.StripElems:
				t.Errorf("phase %d edge %s: ring of %d elements, want %d×%d", ph.Index, e.Name(), ring, nbuf, plan.StripElems)
			case ring > 0:
				rings++
			}
		}
	}
	return rings
}
