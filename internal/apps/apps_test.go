package apps

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// TestRegistry runs every app at a small size. Run itself checks that
// the regular and stream outputs agree; on top of that both styles must
// simulate a non-zero cycle count and the stream graph must compile
// with the default options, the path sdfdump takes. The
// micro-benchmarks sweep COMP across the Fig. 9 knee.
func TestRegistry(t *testing.T) {
	if a, ok := ByKey("quickstart"); !ok || a.Name != "QUICKSTART" || !a.Micro {
		t.Fatalf("registry does not offer the quickstart micro-benchmark the docs reference: %+v", a)
	}
	small := map[string]int{"neo": 4096, "spas": 2000}
	seen := map[string]bool{}
	for _, a := range All() {
		t.Run(a.Key, func(t *testing.T) {
			if seen[a.Key] || seen[a.Name] {
				t.Fatalf("duplicate key %q or name %q", a.Key, a.Name)
			}
			seen[a.Key], seen[a.Name] = true, true
			if b, ok := ByName(a.Name); !ok || b.Key != a.Key {
				t.Fatalf("ByName(%q) = %q, %v", a.Name, b.Key, ok)
			}
			p, comps := a.Defaults, []int{a.Defaults.Comp}
			if a.Micro {
				p.N, comps = 20000, []int{0, 1, 4}
			} else if n, ok := small[a.Key]; ok {
				p.N = n
			}
			for _, comp := range comps {
				p.Comp = comp
				res, err := a.Run(p, exec.Defaults())
				if err != nil {
					t.Fatalf("comp=%d: %v", comp, err)
				}
				if res.Regular.Cycles == 0 || res.Stream.Cycles == 0 {
					t.Fatalf("comp=%d: zero cycles (regular %d, stream %d)", comp, res.Regular.Cycles, res.Stream.Cycles)
				}
				srf := svm.DefaultSRF(sim.MustNew(sim.PentiumD8300()))
				if _, err := compiler.Compile(res.Graph, compiler.DefaultOptions(srf)); err != nil {
					t.Fatalf("comp=%d: graph does not compile: %v", comp, err)
				}
			}
		})
	}
}

// outcome is everything a run exposes that hidden shared state could
// perturb.
type outcome struct {
	regular, stream uint64
	// metrics is the run's registry: the machines' MachineStats (the
	// sim.* gauges) plus every svm, wq and exec counter.
	metrics  map[string]float64
	faults   string // fault trace
	timeline string // timeline dump
}

// runArmed runs GAT-SCAT-COMP with every per-run option set: a
// timeline, a seeded fault injector and the reference path.
func runArmed() (outcome, error) {
	fcfg, err := fault.ParseSpec("all:0.05")
	if err != nil {
		return outcome{}, err
	}
	fcfg.Seed = 3
	inj := fault.New(fcfg)
	tl := obs.NewTimeline(2000)
	ecfg := exec.Defaults()
	ecfg.Fault, ecfg.Timeline, ecfg.ReferencePath = inj, tl, true
	o, err := runObserved("gatscat", ecfg)
	o.faults = inj.TraceString()
	var b strings.Builder
	if _, err := tl.WriteTo(&b); err != nil {
		return o, err
	}
	o.timeline = b.String()
	return o, err
}

func runObserved(key string, ecfg exec.Config) (outcome, error) {
	a, _ := ByKey(key)
	reg := obs.NewRegistry()
	res, err := a.Run(Params{N: 20000, Comp: 1, Seed: 5, Observer: reg}, ecfg)
	return outcome{regular: res.Regular.Cycles, stream: res.Stream.Cycles,
		metrics: obs.FlattenSnapshot(reg.Snapshot())}, err
}

// TestConcurrentRunsShareNoState runs two apps at once, one with every
// per-run option set and one on exec.Defaults(), and checks each
// against its own serial run: same cycles, same machine statistics and
// metrics, same fault trace and timeline. Under -race it also shows
// that the two runs touch no common memory.
func TestConcurrentRunsShareNoState(t *testing.T) {
	plain := func() (outcome, error) { return runObserved("ldst", exec.Defaults()) }
	wantArmed, err := runArmed()
	if err != nil {
		t.Fatal(err)
	}
	wantPlain, err := plain()
	if err != nil {
		t.Fatal(err)
	}
	if wantArmed.faults == "" || wantArmed.timeline == "" {
		t.Fatal("armed run recorded no faults or no timeline")
	}

	var gotArmed, gotPlain outcome
	var errArmed, errPlain error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotArmed, errArmed = runArmed() }()
	go func() { defer wg.Done(); gotPlain, errPlain = plain() }()
	wg.Wait()
	if errArmed != nil || errPlain != nil {
		t.Fatalf("concurrent runs failed: %v, %v", errArmed, errPlain)
	}
	if !reflect.DeepEqual(gotArmed, wantArmed) {
		t.Errorf("armed run differs when run concurrently:\ngot  %+v\nwant %+v", gotArmed, wantArmed)
	}
	if !reflect.DeepEqual(gotPlain, wantPlain) {
		t.Errorf("default run differs when run concurrently:\ngot  %+v\nwant %+v", gotPlain, wantPlain)
	}
}
