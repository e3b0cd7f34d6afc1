// Package apps is the registry of the workloads the paper evaluates:
// the documentation's QUICKSTART example, the three Fig. 9
// micro-benchmarks and the four Fig. 11 applications. Every tool that
// names an app — streamtrace and sdfdump's -app, streamd's job specs —
// resolves it here, so adding an app is one entry.
package apps

import (
	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
)

// Params parameterises one run (see micro.Params). The
// micro-benchmarks honour every field. Of the applications, neo-hookean
// takes its element count and streamSPAS its row count from N, and both
// draw their inputs from Seed; streamFEM and streamCDP run one fixed
// paper configuration.
type Params = micro.Params

// Result is one regular-vs-stream comparison whose outputs were checked
// to agree.
type Result struct {
	Name    string // display name, e.g. "streamFEM Euler-lin"
	Regular exec.Result
	Stream  exec.Result
	Graph   *sdf.Graph // the stream version's dataflow graph
}

// App is one registry entry.
type App struct {
	Key  string // CLI key (-app)
	Name string // paper name, as streamd job specs spell it
	Desc string // one-line description
	// Micro marks the COMP-knob micro-benchmarks (QUICKSTART included):
	// they honour N, Comp and NoDoubleBuffer, and streamd serves them.
	Micro    bool
	Defaults Params
	// Run executes both styles and verifies that their outputs agree.
	Run func(Params, exec.Config) (Result, error)
}

func microApp(key, name, desc string, run func(micro.Params, exec.Config) (micro.Result, error)) App {
	return App{Key: key, Name: name, Desc: desc, Micro: true,
		Defaults: Params{N: 200000, Comp: 1, Seed: 1},
		Run: func(p Params, ecfg exec.Config) (Result, error) {
			r, err := run(p, ecfg)
			return Result{r.Name, r.Regular, r.Stream, r.Graph}, err
		}}
}

var registry = []App{
	microApp("quickstart", "QUICKSTART", "the documentation's worked example (axpy-style loop)", micro.RunQuickstart),
	microApp("ldst", "LD-ST-COMP", "sequential load/compute/store micro-benchmark", micro.RunLDST),
	microApp("gatscat", "GAT-SCAT-COMP", "random gather/compute/scatter micro-benchmark", micro.RunGATSCAT),
	microApp("prodcon", "PROD-CON", "producer-consumer locality micro-benchmark", micro.RunPRODCON),
	{Key: "fem", Name: "streamFEM", Desc: "streamFEM, Euler linear elements", Defaults: Params{Seed: 1},
		Run: func(_ Params, ecfg exec.Config) (Result, error) {
			r, err := fem.Run(fem.EulerLin, ecfg)
			return Result{"streamFEM " + r.Params.Name(), r.Regular, r.Stream, r.Graph}, err
		}},
	{Key: "cdp", Name: "streamCDP", Desc: "streamCDP blast-wave step", Defaults: Params{Seed: 1},
		Run: func(_ Params, ecfg exec.Config) (Result, error) {
			r, err := cdp.Run(cdp.Grid4n4096, ecfg)
			return Result{"streamCDP " + r.Params.Name(), r.Regular, r.Stream, r.Graph}, err
		}},
	{Key: "neo", Name: "neo-hookean", Desc: "neo-hookean finite elements", Defaults: Params{N: 8192, Seed: 1},
		Run: func(p Params, ecfg exec.Config) (Result, error) {
			r, err := neo.Run(neo.Params{Elements: p.N, Seed: p.Seed}, ecfg)
			return Result{"neo-hookean", r.Regular, r.Stream, r.Graph}, err
		}},
	{Key: "spas", Name: "streamSPAS", Desc: "streamSPAS sparse matrix-vector product", Defaults: Params{N: 8192, Seed: 1},
		Run: func(p Params, ecfg exec.Config) (Result, error) {
			r, err := spas.Run(spas.Params{Rows: p.N, NNZPerRow: spas.PaperNNZPerRow, Seed: p.Seed}, ecfg)
			return Result{"streamSPAS", r.Regular, r.Stream, r.Graph}, err
		}},
}

// All returns every app: the micro-benchmarks, then the applications
// in Fig. 11 order.
func All() []App { return append([]App(nil), registry...) }

// Keys returns every app's CLI key, in registry order.
func Keys() []string {
	keys := make([]string, len(registry))
	for i, a := range registry {
		keys[i] = a.Key
	}
	return keys
}

// ByKey returns the app with the given CLI key.
func ByKey(key string) (App, bool) {
	for _, a := range registry {
		if a.Key == key {
			return a, true
		}
	}
	return App{}, false
}

// ByName returns the app with the given paper name.
func ByName(name string) (App, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
