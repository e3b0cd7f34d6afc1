// Package streamgpp reproduces "Stream Programming on General-Purpose
// Processors" (Gummaraju & Rosenblum, MICRO 2005): a complete system
// for writing programs in a streaming style — gather/operate/scatter
// over a Stream Virtual Machine — and mapping them efficiently onto a
// conventional CPU by pinning the Stream Register File in cache and
// scheduling bulk memory operations and computation kernels onto the
// two contexts of a simultaneous-multithreaded core through a
// distributed work queue.
//
// Because the paper's machine-specific levers (SMT thread pinning,
// non-temporal x86 instructions, MONITOR/MWAIT) are not reachable from
// portable Go, the machine itself is provided as a deterministic
// simulator calibrated to the paper's 3.4 GHz Pentium 4 testbed; both
// programming styles run on it and are compared exactly as in §IV.
//
// The essential flow:
//
//	m := streamgpp.NewMachine()                    // the simulated CPU
//	a := streamgpp.NewArray(m, "a", layout, n)     // data in global memory
//	g := streamgpp.NewGraph("prog")                // an SDF stream program
//	in := g.Input(stream, streamgpp.Bind(a))       // gather edges
//	out := g.AddKernel(kernel, ins, outs)          // computation kernels
//	g.Output(out[0], streamgpp.Bind(result))       // scatter edges
//	prog, _ := streamgpp.Compile(g, streamgpp.DefaultOptions(streamgpp.DefaultSRF(m)))
//	res := streamgpp.RunStream(m, prog, streamgpp.DefaultExec())
//
// Sub-packages under internal/ hold the implementation: sim (the
// machine), svm (streams, SRF, gather/scatter, kernels), sdf (graphs),
// compiler (strip-mining, double buffering, fusion, scheduling), wq
// (the distributed work queue), exec (the executors) and apps (the
// paper's micro-benchmarks and four scientific applications). This
// package is the stable facade re-exporting what a downstream user
// needs.
package streamgpp

import (
	"streamgpp/internal/advisor"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/fault"
	"streamgpp/internal/obs"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// Machine is the simulated two-context processor (see internal/sim).
type Machine = sim.Machine

// MachineConfig holds every machine parameter.
type MachineConfig = sim.Config

// CPU is a simulated thread's handle onto a hardware context.
type CPU = sim.CPU

// Hint is a cacheability hint (temporal or non-temporal).
type Hint = sim.Hint

// Cacheability hints.
const (
	HintNone        = sim.HintNone
	HintNonTemporal = sim.HintNonTemporal
)

// WaitPolicy selects how idle simulated threads wait (PAUSE spin,
// MONITOR/MWAIT, or OS descheduling).
type WaitPolicy = sim.WaitPolicy

// Wait policies from §III-B.2.
const (
	PolicyPause = sim.PolicyPause
	PolicyMwait = sim.PolicyMwait
	PolicyOS    = sim.PolicyOS
)

// PentiumD8300 returns the paper's testbed configuration: a 3.4 GHz
// Pentium 4 Prescott with a 1 MB 8-way L2 and a 6.4 GB/s front-side bus.
func PentiumD8300() MachineConfig { return sim.PentiumD8300() }

// NewMachine returns a machine with the paper's testbed configuration.
func NewMachine() *Machine { return sim.MustNew(sim.PentiumD8300()) }

// NewMachineWith returns a machine with a custom configuration.
func NewMachineWith(cfg MachineConfig) (*Machine, error) { return sim.New(cfg) }

// Field, RecordLayout, Array, IndexArray, Stream, SRF and Kernel are
// the Stream Virtual Machine building blocks (see internal/svm).
type (
	Field        = svm.Field
	RecordLayout = svm.RecordLayout
	Array        = svm.Array
	IndexArray   = svm.IndexArray
	Stream       = svm.Stream
	SRF          = svm.SRF
	Kernel       = svm.Kernel
)

// F is shorthand for a field specification: F("x", 8) is an 8-byte
// field named x.
func F(name string, size int) Field { return svm.F(name, size) }

// Layout builds a packed record layout from fields.
func Layout(name string, fields ...Field) RecordLayout { return svm.Layout(name, fields...) }

// NewArray allocates an array of n records in simulated global memory.
func NewArray(m *Machine, name string, layout RecordLayout, n int) *Array {
	return svm.NewArray(m, name, layout, n)
}

// NewIndexArray allocates an index array for indexed gathers/scatters.
func NewIndexArray(m *Machine, name string, n int) *IndexArray {
	return svm.NewIndexArray(m, name, n)
}

// NewStream creates a stream of n elements with the given packed fields.
func NewStream(name string, n int, fields ...Field) *Stream {
	return svm.NewStream(name, n, fields...)
}

// StreamOf creates a stream shaped to carry selected fields of a record
// layout (the result of a gather).
func StreamOf(name string, n int, src RecordLayout, selected []int) *Stream {
	return svm.StreamOf(name, n, src, selected)
}

// DefaultSRF allocates a Stream Register File sized to pin comfortably
// inside the machine's L2 cache.
func DefaultSRF(m *Machine) *SRF { return svm.DefaultSRF(m) }

// NewSRF allocates a Stream Register File of an explicit size.
func NewSRF(m *Machine, bytes uint64) (*SRF, error) { return svm.NewSRF(m, bytes) }

// Graph, Edge and Binding describe stream programs as Synchronous Data
// Flow graphs (see internal/sdf).
type (
	Graph   = sdf.Graph
	Edge    = sdf.Edge
	Binding = sdf.Binding
)

// NewGraph returns an empty SDF graph.
func NewGraph(name string) *Graph { return sdf.New(name) }

// Bind ties a stream edge to an array over the named fields (all
// fields when none are given); chain .Indexed, .MultiIndexed or
// .Accumulate for indexed and scatter-add access.
func Bind(a *Array, fields ...string) Binding { return sdf.Bind(a, fields...) }

// Program is a compiled stream program; CompileOptions tune the
// compiler (see internal/compiler).
type (
	Program        = compiler.Program
	CompileOptions = compiler.Options
)

// DefaultOptions returns the paper's compilation configuration: double
// buffering and kernel fusion on, non-temporal bulk memory operations.
func DefaultOptions(srf *SRF) CompileOptions { return compiler.DefaultOptions(srf) }

// Compile lowers a validated SDF graph to a software-pipelined task
// schedule: strip-mining, double buffering, fusion and dependence
// encoding, as in §IV-A.
func Compile(g *Graph, opt CompileOptions) (*Program, error) { return compiler.Compile(g, opt) }

// ExecConfig tunes the executors; Result reports one execution; Loop
// describes one regular-code loop nest (see internal/exec).
type (
	ExecConfig = exec.Config
	Result     = exec.Result
	Loop       = exec.Loop
)

// DefaultExec returns the evaluation's executor configuration
// (MONITOR/MWAIT waits, 64-slot work queue).
func DefaultExec() ExecConfig { return exec.Defaults() }

// RunStream executes a compiled program on both hardware contexts:
// control+compute on one, the memory thread on the other, communicating
// through the distributed work queue (§III-B). A non-nil error is
// always a *RunError carrying the failing task, strip, phase and
// cycle; without fault injection it can only report an executor bug.
func RunStream(m *Machine, p *Program, cfg ExecConfig) (Result, error) {
	return exec.RunStream2Ctx(m, p, cfg)
}

// RunStream1Ctx executes a compiled program software-pipelined on a
// single hardware context.
func RunStream1Ctx(m *Machine, p *Program, cfg ExecConfig) (Result, error) {
	return exec.RunStream1Ctx(m, p, cfg)
}

// RunRegular executes conventional interleaved loops — the baseline the
// paper compares against.
func RunRegular(m *Machine, cfg ExecConfig, loops ...Loop) Result {
	return exec.RunRegular(m, cfg, loops...)
}

// Speedup returns the paper's metric: regular cycles over stream cycles.
func Speedup(regular, stream Result) float64 { return exec.Speedup(regular, stream) }

// Trace records the task timeline of a stream execution (attach to
// ExecConfig.Trace); TraceEvent is one entry.
type (
	Trace      = exec.Trace
	TraceEvent = exec.TraceEvent
)

// TuneResult reports a strip-size search (see TuneStripSize).
type TuneResult = exec.TuneResult

// TuneStripSize empirically searches for the strip size minimising a
// program's execution time — the job the paper assigns to the stream
// scheduler. build must produce a fresh machine and program per
// candidate (0 = the compiler's automatic choice).
func TuneStripSize(candidates []int, ecfg ExecConfig,
	build func(stripElems int) (*Machine, *Program, error)) (TuneResult, error) {
	return exec.TuneStripSize(candidates, ecfg, build)
}

// HalvingCandidates returns the strip-size ladder auto/2, auto/4, ...
// down to min, for TuneStripSize.
func HalvingCandidates(auto, min int) []int { return exec.HalvingCandidates(auto, min) }

// MetricsRegistry is a registry of named counters, gauges and
// histograms the whole stack records into; MetricsSnapshot is its
// state frozen at one instant, with Delta for bracketing runs (see
// internal/obs).
type (
	MetricsRegistry = obs.Registry
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry. Attach it to a
// machine with Machine.SetObserver — or install it with
// SetDefaultObserver before machines are built — and the simulator,
// the SVM bulk operations, the work queue and the executors all record
// into it.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SetDefaultObserver installs a registry onto every Machine created
// after this call (nil turns it off) — for observing machines built
// deep inside application packages.
func SetDefaultObserver(r *MetricsRegistry) { sim.SetDefaultObserver(r) }

// MachineStats is every simulator counter block (caches, TLB, bus,
// prefetchers) frozen at one instant; obtain it from
// Machine.StatsSnapshot.
type MachineStats = sim.MachineStats

// StallReport attributes a run's cycles per hardware context: compute,
// bulk memory, dependency-wait (spin+mwait on the work queue), idle.
type StallReport = exec.StallReport

// NewStallReport builds the attribution for one execution.
func NewStallReport(res Result) StallReport { return exec.NewStallReport(res) }

// AdvisorReport is the §V-A streaming-suitability analysis of a graph.
type AdvisorReport = advisor.Report

// Advise statically analyses a stream program: traffic, arithmetic
// intensity, the paper's suitability checklist, and a cycle estimate —
// before anything runs.
func Advise(g *Graph, cfg MachineConfig) (*AdvisorReport, error) {
	return advisor.Analyze(g, cfg)
}

// --- Fault injection and recovery (robustness layer) ---

// FaultKind enumerates the injectable fault classes: latency spikes
// and dropped wakeups in the machine model, dropped dependence-clears
// and transient enqueue failures in the work queue, kernel faults and
// poisoned SRF strips in the executor.
type FaultKind = fault.Kind

// The injectable fault kinds.
const (
	FaultLatencySpike    = fault.LatencySpike
	FaultDroppedWakeup   = fault.DroppedWakeup
	FaultDroppedDepClear = fault.DroppedDepClear
	FaultEnqueueFull     = fault.EnqueueFull
	FaultKernelFault     = fault.KernelFault
	FaultPoisonedStrip   = fault.PoisonedStrip
)

// FaultConfig parameterises a fault injector: a seed, per-kind rates
// and caps, and the latency-spike magnitude.
type FaultConfig = fault.Config

// FaultInjector is the deterministic seeded fault source; a run under
// injection replays byte-identically from its seed.
type FaultInjector = fault.Injector

// NewFaultInjector returns an injector drawing from cfg.Seed. Arm it
// for one run with ExecConfig.Fault: machine-level hooks, the work
// queue and the executors all draw from it, and the executors respond
// with strip-level retry, dependence scrubbing, a progress watchdog and
// graceful degradation to the single-context schedule (see
// ExecConfig.RetryLimit, WatchdogCycles, DegradeTo1Ctx).
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return fault.New(cfg) }

// ParseFaultSpec parses a CLI fault specification ("kind:rate,..."
// with kinds as printed by FaultKind.String, or "all:rate").
func ParseFaultSpec(spec string) (FaultConfig, error) { return fault.ParseSpec(spec) }

// RunError is the structured failure of a stream-program run,
// replacing the run path's former panics: it names the operation,
// task, phase, strip, context and cycle, plus a work-queue dependence
// diagnosis for scheduling failures.
type RunError = exec.RunError

// RecoverySummary accounts one run's fault-recovery activity; see
// Result.Recovery and StallReport.Recovery.
type RecoverySummary = exec.RecoverySummary
