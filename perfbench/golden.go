package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"streamgpp/internal/exec"
)

// golden.json records, per problem-size divisor, workload and seed, the
// simulated regular and stream cycles of every sim-phase app. A change
// that only speeds up the simulator must leave these unchanged; one
// that changes the modelled machine fails the check rather than
// passing as faster.
//
//go:embed golden.json
var goldenJSON []byte

// goldenTable is keyed by "div<n>", then workload, then seed, then app.
type goldenTable map[string]map[string]map[string]map[string][2]uint64

func loadGolden() (goldenTable, error) {
	var g goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// lookup returns the recorded cycles for one run, or nil when none are
// recorded for that seed.
func (g goldenTable) lookup(div int, workload string, seed int64) map[string][2]uint64 {
	return g[divKey(div)][workload][strconv.FormatInt(seed, 10)]
}

func divKey(div int) string { return "div" + strconv.Itoa(div) }

// recordGolden runs one pass of every workload's sim phase for seeds
// 0..seeds-1 and returns the golden table with the entries for div
// replaced.
func recordGolden(g goldenTable, div, seeds int) (goldenTable, error) {
	if g == nil {
		g = goldenTable{}
	}
	byWorkload := map[string]map[string]map[string][2]uint64{}
	for _, w := range workloads {
		bySeed := map[string]map[string][2]uint64{}
		for seed := int64(0); seed < int64(seeds); seed++ {
			apps := w.apps(seed, div)
			cycles := map[string][2]uint64{}
			for _, a := range apps {
				r, err := a.run(&appCtx{seed: seed, ecfg: exec.Defaults()})
				if err != nil {
					return nil, fmt.Errorf("%s seed %d %s: %w", w.name, seed, a.name, err)
				}
				cycles[a.name] = [2]uint64{r.regular, r.stream}
			}
			bySeed[strconv.FormatInt(seed, 10)] = cycles
		}
		byWorkload[w.name] = bySeed
	}
	g[divKey(div)] = byWorkload
	return g, nil
}
