package bench

import (
	"fmt"
	"io"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/fem"
	"streamgpp/internal/apps/micro"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
)

// Fig9 reproduces the micro-benchmark speedup curves: LD-ST-COMP,
// GAT-SCAT-COMP and PROD-CON as the per-element computation (COMP)
// grows. COMP=1 ≈ 50 cycles per loaded value.
func Fig9(w io.Writer, o Options) error {
	comps := []int{0, 1, 2, 4, 8, 16, 32}
	n := 150000
	if o.Quick {
		comps = []int{1, 4, 16}
		n = 60000
	}
	t := Table{
		Title:  "Fig. 9: stream/regular speedup vs COMP",
		Header: []string{"COMP", "LD-ST-COMP", "GAT-SCAT-COMP", "PROD-CON"},
	}
	rows, err := parMap(o.Parallelism, len(comps), func(i int) ([3]float64, error) {
		p := micro.Params{N: n, Comp: comps[i], Seed: 9}
		ecfg := o.rowExec(fmt.Sprintf("fig9/comp=%d", comps[i]))
		ld, err := micro.RunLDST(p, ecfg)
		if err != nil {
			return [3]float64{}, err
		}
		gs, err := micro.RunGATSCAT(p, ecfg)
		if err != nil {
			return [3]float64{}, err
		}
		pc, err := micro.RunPRODCON(p, ecfg)
		if err != nil {
			return [3]float64{}, err
		}
		return [3]float64{ld.Speedup, gs.Speedup, pc.Speedup}, nil
	})
	if err != nil {
		return err
	}
	for i, r := range rows {
		t.AddRow(fmt.Sprintf("%d", comps[i]),
			fmt.Sprintf("%.2f", r[0]), fmt.Sprintf("%.2f", r[1]), fmt.Sprintf("%.2f", r[2]))
	}
	t.Note("paper: LD-ST-COMP largest at low COMP (max +92%%) decaying to ~1;")
	t.Note("GAT-SCAT rises with COMP then converges (worst case -4%%); PROD-CON above GAT-SCAT throughout.")
	t.Render(w)
	return nil
}

// Fig11a reproduces the streamFEM study: Euler/MHD × linear/quadratic
// on the 4816-cell mesh.
func Fig11a(w io.Writer, o Options) error {
	steps := 3
	if o.Quick {
		steps = 1
	}
	t := Table{
		Title:  "Fig. 11(a): streamFEM speedups, 4816 cells",
		Header: []string{"config", "record B", "speedup", "regular cyc", "stream cyc"},
	}
	cfgs := []fem.Params{fem.EulerLin, fem.EulerQuad, fem.MHDLin, fem.MHDQuad}
	results, err := parMap(o.Parallelism, len(cfgs), func(i int) (fem.Result, error) {
		p := cfgs[i]
		p.Steps = steps
		return fem.Run(p, o.rowExec("fig11a/"+p.Name()))
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		t.AddRow(cfgs[i].Name(), fmt.Sprintf("%d", cfgs[i].K()*8),
			fmt.Sprintf("%.2f", res.Speedup),
			fmt.Sprintf("%d", res.Regular.Cycles), fmt.Sprintf("%d", res.Stream.Cycles))
	}
	t.Note("paper: 1.13x-1.26x, smaller for the compute-bound quadratic spaces")
	t.Render(w)
	return nil
}

// Fig11b reproduces the streamCDP study: {4n, 6n} × {4096, 8192}.
func Fig11b(w io.Writer, o Options) error {
	steps := 3
	if o.Quick {
		steps = 1
	}
	t := Table{
		Title:  "Fig. 11(b): streamCDP speedups",
		Header: []string{"config", "speedup", "regular cyc", "stream cyc"},
	}
	cfgs := []cdp.Params{cdp.Grid4n4096, cdp.Grid4n8192, cdp.Grid6n4096, cdp.Grid6n8192}
	results, err := parMap(o.Parallelism, len(cfgs), func(i int) (cdp.Result, error) {
		p := cfgs[i]
		p.Steps = steps
		return cdp.Run(p, o.rowExec("fig11b/"+p.Name()))
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		t.AddRow(cfgs[i].Name(), fmt.Sprintf("%.2f", res.Speedup),
			fmt.Sprintf("%d", res.Regular.Cycles), fmt.Sprintf("%d", res.Stream.Cycles))
	}
	t.Note("paper: 0.94x-1.27x, improving with neighbours and mesh size")
	t.Render(w)
	return nil
}

// Fig11c reproduces the neo-hookean sweep over element counts.
func Fig11c(w io.Writer, o Options) error {
	sizes := []int{16384, 32768, 65536, 131072}
	if o.Quick {
		sizes = []int{16384, 32768}
	}
	t := Table{
		Title:  "Fig. 11(c): neo-hookean speedups",
		Header: []string{"elements", "speedup", "saved writeback MB"},
	}
	results, err := parMap(o.Parallelism, len(sizes), func(i int) (neo.Result, error) {
		return neo.Run(neo.Params{Elements: sizes[i], Seed: 11}, o.rowExec(fmt.Sprintf("fig11c/elems=%d", sizes[i])))
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		t.AddRow(fmt.Sprintf("%d", sizes[i]), fmt.Sprintf("%.2f", res.Speedup),
			fmt.Sprintf("%.1f", float64(res.SavedBytes)/1e6))
	}
	t.Note("paper: 1.21x-1.23x from producer-consumer locality (elements x 144 B never written back)")
	t.Render(w)
	return nil
}

// Fig11d reproduces the streamSPAS sweep: rows grow with nnz/rows ≈ 46.
func Fig11d(w io.Writer, o Options) error {
	sizes := []int{2000, 6000, 16000, 48000}
	if o.Quick {
		sizes = []int{2000, 16000}
	}
	t := Table{
		Title:  "Fig. 11(d): streamSPAS speedups (nnz/row = 46)",
		Header: []string{"rows", "nnz", "speedup"},
	}
	results, err := parMap(o.Parallelism, len(sizes), func(i int) (spas.Result, error) {
		return spas.Run(spas.Params{Rows: sizes[i], NNZPerRow: spas.PaperNNZPerRow, Seed: 13},
			o.rowExec(fmt.Sprintf("fig11d/rows=%d", sizes[i])))
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		t.AddRow(fmt.Sprintf("%d", sizes[i]), fmt.Sprintf("%d", results[i].NNZ), fmt.Sprintf("%.2f", res.Speedup))
	}
	t.Note("paper: a slowdown for small meshes (the cache serves the regular code) recovering as the matrix outgrows the cache")
	t.Render(w)
	return nil
}
