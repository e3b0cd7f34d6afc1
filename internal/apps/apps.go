// Package apps is the registry of the workloads the paper evaluates:
// the documentation's QUICKSTART example, the three Fig. 9
// micro-benchmarks and the four Fig. 11 applications. Every tool that
// names an app — streamtrace and sdfdump's -app, streamd's job specs —
// resolves it here, so adding an app is one entry.
package apps

import (
	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/driver"
	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/exec"
)

// Params parameterises one run (see micro.Params). The
// micro-benchmarks honour every field. Of the applications, neo-hookean
// takes its element count and streamSPAS its row count from N, and both
// draw their inputs from Seed; streamFEM and streamCDP run one fixed
// paper configuration. Every app attaches Observer to both of its
// machines.
type Params = micro.Params

// Result is one regular-vs-stream comparison whose outputs were checked
// to agree.
type Result = driver.Result

// App is one registry entry.
type App struct {
	Key  string // CLI key (-app)
	Name string // paper name, as streamd job specs spell it
	Desc string // one-line description
	// Micro marks the COMP-knob micro-benchmarks (QUICKSTART included):
	// they honour N, Comp and NoDoubleBuffer, and streamd serves them.
	Micro    bool
	Defaults Params
	// Spec returns the app's regular-vs-stream comparison for p.
	Spec func(Params) driver.Spec
}

// Run executes both styles and verifies that their outputs agree.
func (a App) Run(p Params, ecfg exec.Config) (Result, error) {
	s := a.Spec(p)
	s.Observer = p.Observer
	return driver.Run(s, ecfg)
}

func microApp(key, name, desc string, spec func(Params) driver.Spec) App {
	return App{Key: key, Name: name, Desc: desc, Micro: true,
		Defaults: Params{N: 200000, Comp: 1, Seed: 1}, Spec: spec}
}

var registry = []App{
	microApp("quickstart", "QUICKSTART", "the documentation's worked example (axpy-style loop)", micro.QuickstartSpec),
	microApp("ldst", "LD-ST-COMP", "sequential load/compute/store micro-benchmark", micro.LDSTSpec),
	microApp("gatscat", "GAT-SCAT-COMP", "random gather/compute/scatter micro-benchmark", micro.GATSCATSpec),
	microApp("prodcon", "PROD-CON", "producer-consumer locality micro-benchmark", micro.PRODCONSpec),
	{Key: "fem", Name: "streamFEM", Desc: "streamFEM, Euler linear elements", Defaults: Params{Seed: 1},
		Spec: func(Params) driver.Spec { return fem.Spec(fem.EulerLin) }},
	{Key: "cdp", Name: "streamCDP", Desc: "streamCDP blast-wave step", Defaults: Params{Seed: 1},
		Spec: func(Params) driver.Spec { return cdp.Spec(cdp.Grid4n4096) }},
	{Key: "neo", Name: "neo-hookean", Desc: "neo-hookean finite elements", Defaults: Params{N: 8192, Seed: 1},
		Spec: func(p Params) driver.Spec { return neo.Spec(neo.Params{Elements: p.N, Seed: p.Seed}) }},
	{Key: "spas", Name: "streamSPAS", Desc: "streamSPAS sparse matrix-vector product", Defaults: Params{N: 8192, Seed: 1},
		Spec: func(p Params) driver.Spec {
			return spas.Spec(spas.Params{Rows: p.N, NNZPerRow: spas.PaperNNZPerRow, Seed: p.Seed})
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
