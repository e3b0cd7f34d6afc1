package main

import (
	"fmt"

	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
)

// workload is one set of inputs the benchmark runs. Every workload
// alternates sim slices, in which the benchmark drives apps in process,
// and service slices, in which two clients drive an in-process streamd
// over loopback HTTP. The workloads differ in which simulations both
// kinds of slice run.
type workload struct {
	name string
	// apps returns the sim slices' apps for one seed. div shrinks the
	// problem sizes (1 = full size).
	apps func(seed int64, div int) []simApp
	// missApps are the streamd apps client M submits with fresh seeds,
	// one round of its jobs. The sequential apps (QUICKSTART, LD-ST-COMP)
	// run in a fraction of the time of the indexed ones, so an app
	// listed twice weights the mix such that the miss median and p90
	// fall inside one app's latency cluster rather than on the edge
	// between two, where they would jump from run to run.
	missApps []string
}

var workloads = []workload{
	{
		// The bulk fast path serves most accesses here.
		name: "sim-coalesced",
		apps: func(seed int64, div int) []simApp {
			return []simApp{
				microApp("LD-ST-COMP", micro.RunLDST, 100000/div),
				cdpApp([]int{shrink(128, div), 64}),
				cdpApp([]int{shrink(32, div), 16, 16}),
				spasApp(24000/div, seed),
			}
		},
		missApps: []string{"LD-ST-COMP", "QUICKSTART"},
	},
	{
		// Indexed gathers and scatters: the per-access cache/TLB path
		// and the two-context engine's handoffs dominate.
		name: "sim-irregular",
		apps: func(seed int64, div int) []simApp {
			return []simApp{
				microApp("GAT-SCAT-COMP", micro.RunGATSCAT, 100000/div),
				microApp("PROD-CON", micro.RunPRODCON, 100000/div),
				neoApp(32768/div, seed),
				femApp(femParams(div)),
			}
		},
		missApps: []string{"GAT-SCAT-COMP", "GAT-SCAT-COMP", "PROD-CON"},
	},
}

// femParams is FEM Euler-linear on the paper's mesh, or on a smaller
// mesh for shrunk runs.
func femParams(div int) fem.Params {
	p := fem.EulerLin
	if div > 1 {
		p.Mesh = fem.MeshForCells(4816 / div)
	}
	return p
}

// shrink divides a grid dimension, keeping the smallest size CDP takes.
func shrink(n, div int) int { return max(n/div, 2) }

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
