package svm

import (
	"fmt"

	"streamgpp/internal/sim"
)

// Kernel is a computation kernel: a function over stream strips that
// only touches SRF-resident data (never global memory), plus a cost
// model. Paper kernels "typically have several hundred operations" per
// element; OpsPerElem expresses that.
type Kernel struct {
	Name string
	// OpsPerElem is the compute cost per element (issue-slot cycles
	// when running alone), including the SRF loads/stores the kernel
	// body performs — those always hit in cache, so they behave like
	// ordinary pipelined instructions.
	OpsPerElem int64
	// Fn computes output elements [start, start+n) from the same
	// elements of the input streams, the only ones a ring-stored
	// stream is sure to hold. It may return a non-zero op count to
	// override OpsPerElem*n (for data-dependent control flow, like
	// streamCDP's face conditional).
	Fn func(ins, outs []*Stream, start, n int) int64
}

// Run executes the kernel on elements [start, start+n), performing the
// functional computation and charging compute time on c (nil c skips
// timing).
func (k *Kernel) Run(c *sim.CPU, ins, outs []*Stream, start, n int) {
	if n == 0 {
		return
	}
	if k.Fn == nil {
		panic(fmt.Sprintf("svm: kernel %s has no body", k.Name))
	}
	for _, s := range ins {
		s.checkRange("kernel "+k.Name+" input "+s.Name, start, n)
	}
	for _, s := range outs {
		s.checkRange("kernel "+k.Name+" output "+s.Name, start, n)
	}
	ops := k.Fn(ins, outs, start, n)
	if ops == 0 {
		ops = k.OpsPerElem * int64(n)
	}
	if c != nil {
		c.Compute(ops)
	}
}

// Fuse combines two kernels that share the same iteration space into
// one (the paper's kernel-fusion optimisation, applied to streamFEM's
// GatherCell/AdvanceCell pair). The fused kernel runs a then b over the
// same strip; the streams of both are concatenated (inputs of b that a
// produces are passed through positionally by the caller's wiring).
func Fuse(name string, a, b *Kernel, aIns, aOuts, bIns, bOuts int) *Kernel {
	return &Kernel{
		Name:       name,
		OpsPerElem: a.OpsPerElem + b.OpsPerElem,
		Fn: func(ins, outs []*Stream, start, n int) int64 {
			if len(ins) != aIns+bIns || len(outs) != aOuts+bOuts {
				panic(fmt.Sprintf("svm: fused kernel %s wired with %d/%d streams, want %d/%d",
					name, len(ins), len(outs), aIns+bIns, aOuts+bOuts))
			}
			opsA := a.Fn(ins[:aIns], outs[:aOuts], start, n)
			if opsA == 0 {
				opsA = a.OpsPerElem * int64(n)
			}
			opsB := b.Fn(ins[aIns:], outs[aOuts:], start, n)
			if opsB == 0 {
				opsB = b.OpsPerElem * int64(n)
			}
			return opsA + opsB
		},
	}
}
