package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"streamgpp/internal/fault"
)

// Faults is per-row fault injection for one experiment run. Every
// table row derives its own injector seed from the base seed and the
// row's stable key (fault.DeriveSeed), so the schedule each row sees is
// a pure function of (base seed, row key) and the parallel runner stays
// deterministic and replayable.
type Faults struct {
	cfg  fault.Config
	mu   sync.Mutex
	rows map[string]*fault.Injector
}

// NewFaults arms per-row injection with cfg. cfg.Seed is the base seed
// every row key derives from.
func NewFaults(cfg fault.Config) *Faults {
	return &Faults{cfg: cfg, rows: map[string]*fault.Injector{}}
}

// row returns the injector for a row key, creating it on first use
// (nil on a nil *Faults). Rows run their regular and stream phases
// sequentially on their own goroutine, so one injector per key never
// sees concurrent draws.
func (f *Faults) row(key string) *fault.Injector {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	in, ok := f.rows[key]
	if !ok {
		c := f.cfg
		c.Seed = fault.DeriveSeed(f.cfg.Seed, key)
		in = fault.New(c)
		f.rows[key] = in
	}
	return in
}

// Report renders the per-row injection summary, sorted by row key so
// the output is byte-identical at any Parallelism. Empty when faults
// are disarmed (nil) or nothing drew.
func (f *Faults) Report() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.rows) == 0 {
		return ""
	}
	keys := make([]string, 0, len(f.rows))
	for k := range f.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	var total uint64
	fmt.Fprintf(&sb, "fault injection (base seed %d, per-row derived seeds):\n", f.cfg.Seed)
	for _, k := range keys {
		in := f.rows[k]
		fmt.Fprintf(&sb, "  %-28s %3d faults, %4d draws\n", k, in.Total(), in.Draws())
		total += in.Total()
	}
	fmt.Fprintf(&sb, "  total: %d faults injected\n", total)
	return sb.String()
}
