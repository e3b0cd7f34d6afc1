package bench

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"

	"streamgpp/internal/exec"
)

// Options configures one experiment run. Every row builds its own
// machines and draws from its own seeded RNGs and fault injector, so
// the computed cells are independent of execution order and the
// rendered tables are byte-identical at any Parallelism.
type Options struct {
	// Quick shrinks the problem sizes for a fast smoke run.
	Quick bool
	// Parallelism is the number of worker goroutines, both across
	// experiments (RunAll) and across the rows of one experiment's
	// table. 1 or less runs everything serially.
	Parallelism int
	// Faults, when non-nil, arms per-row fault injection.
	Faults *Faults
	// ReferencePath runs every row on the simulator's per-access
	// reference path instead of the bulk fast path (same cycles).
	ReferencePath bool
}

// rowExec returns the default executor configuration for the table row
// with the given stable key, armed with the row's derived fault
// injector and the reference-path choice.
func (o Options) rowExec(key string) exec.Config {
	cfg := exec.Defaults()
	cfg.Fault = o.Faults.row(key)
	cfg.ReferencePath = o.ReferencePath
	return cfg
}

// parMap computes out[i] = f(i) for i in [0,n), running up to workers
// calls concurrently. Results land in index order, so a table
// assembled from them matches the serial loop byte for byte. All
// in-flight calls finish before it returns; the first error by index
// wins.
func parMap[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				out[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAll executes every experiment and writes their tables in paper
// order. With o.Parallelism > 1 the experiments run concurrently, each
// rendering into its own buffer; the buffers are emitted in order, so
// the output is byte-identical to a serial run.
func RunAll(w io.Writer, o Options) error {
	exps := Experiments()
	outs, err := parMap(o.Parallelism, len(exps), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		if err := exps[i].Run(&buf, o); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	for _, b := range outs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
