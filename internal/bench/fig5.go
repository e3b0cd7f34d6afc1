package bench

import (
	"fmt"
	"io"
	"math/rand"

	"streamgpp/internal/sim"
)

// BandwidthProbe measures the streamGather/streamScatter bandwidth of
// §III-A: useful GB/s moving 4-byte fields from records of recordBytes,
// over an array much larger than the cache and the TLB coverage.
type BandwidthProbe struct {
	RecordBytes int
	Random      bool
	Write       bool
	NonTemporal bool
	TotalBytes  uint64 // array footprint; default 16 MB
}

// Run executes the probe on the paper's machine and returns GB/s of
// useful data.
func (p BandwidthProbe) Run() float64 { return p.RunOn(sim.PentiumD8300()) }

// RunOn executes the probe on a machine with the given configuration.
func (p BandwidthProbe) RunOn(cfg sim.Config) float64 {
	m := sim.MustNew(cfg)
	total := p.TotalBytes
	if total == 0 {
		total = 16 << 20
	}
	const fieldBytes = 4
	n := int(total) / p.RecordBytes
	reg := m.AS.Alloc("arr", total)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if p.Random {
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	hint := sim.HintNone
	if p.NonTemporal {
		hint = sim.HintNonTemporal
	}

	var cycles uint64
	m.Run(func(c *sim.CPU) {
		pipe := c.NewPipe(2, 1, sim.StateMemory)
		for _, idx := range order {
			pipe.Access(reg.Base+uint64(idx*p.RecordBytes), fieldBytes, p.Write, hint)
		}
		pipe.Drain()
		if p.Write && p.NonTemporal {
			c.DrainWC()
		}
		cycles = c.Now()
	})
	return m.Config().BandwidthGBs(uint64(n*fieldBytes), cycles)
}

// Fig5 reproduces the four panels of Fig. 5: sequential loads, random
// gathers, sequential stores and random scatters, each with and
// without non-temporal/prefetch hints, across record sizes 4–128 B.
func Fig5(w io.Writer, o Options) error {
	records := []int{4, 8, 16, 32, 64, 128}
	total := uint64(16 << 20)
	if o.Quick {
		records = []int{4, 32, 128}
		total = 4 << 20
	}
	panels := []struct {
		name   string
		random bool
		write  bool
		expect string
	}{
		{"(a) sequential loads", false, false, "falls ~1/record-size from near bus speed to ~0.14 GB/s; NT hurts"},
		{"(b) random gathers", true, false, "flat and low (~0.06 GB/s, TLB-walk bound); NT helps ~30%"},
		{"(c) sequential stores", false, true, "about half of the load bandwidth (read-for-ownership)"},
		{"(d) random scatters", true, true, "low like gathers; NT write-combining helps"},
	}
	for _, p := range panels {
		t := Table{
			Title:  "Fig. 5" + p.name,
			Header: []string{"record B", "plain GB/s", "non-temporal GB/s"},
		}
		p := p
		rows, err := parMap(o.Parallelism, len(records), func(i int) ([2]float64, error) {
			rec := records[i]
			plain := BandwidthProbe{RecordBytes: rec, Random: p.random, Write: p.write, TotalBytes: total}.Run()
			nt := BandwidthProbe{RecordBytes: rec, Random: p.random, Write: p.write, NonTemporal: true, TotalBytes: total}.Run()
			return [2]float64{plain, nt}, nil
		})
		if err != nil {
			return err
		}
		for i, r := range rows {
			t.AddRow(fmt.Sprintf("%d", records[i]), fmt.Sprintf("%.3f", r[0]), fmt.Sprintf("%.3f", r[1]))
		}
		t.Note("paper: %s", p.expect)
		t.Render(w)
	}
	return nil
}
