package svm

import (
	"fmt"

	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// SRF is the Stream Register File: a contiguous region of simulated
// memory sized to sit comfortably inside the L2 cache, where every
// stream strip lives. Gathers write into it with temporal stores while
// array traffic uses non-temporal hints, so the cache's insertion
// policy keeps it pinned (§III-A).
type SRF struct {
	Region   sim.Region
	capacity uint64
	used     uint64
	maxUsed  uint64 // high-water mark across Resets
	allocs   []SRFBuf
	obs      *obs.Registry // the machine's registry at creation, or nil
}

// SRFBuf is one allocation inside the SRF.
type SRFBuf struct {
	Name string
	Base sim.Addr
	Size uint64
}

// DefaultSRFFraction is how much of the L2 the SRF occupies by default,
// leaving room for stacks, code and the NT ways.
const DefaultSRFFraction = 0.25

// NewSRF allocates an SRF of the given size in the machine's address
// space. Size must not exceed the L2 capacity (it could not be pinned).
func NewSRF(m *sim.Machine, bytes uint64) (*SRF, error) {
	if bytes == 0 {
		return nil, fmt.Errorf("svm: zero-size SRF")
	}
	l2 := uint64(m.Config().L2Bytes)
	if bytes > l2 {
		return nil, fmt.Errorf("svm: SRF of %d bytes exceeds the %d-byte L2 — it cannot be pinned", bytes, l2)
	}
	s := &SRF{Region: m.AS.Alloc("SRF", bytes), capacity: bytes, obs: m.Observer()}
	if s.obs != nil {
		s.obs.Gauge("svm.srf.capacity_bytes").Set(float64(bytes))
	}
	return s, nil
}

// DefaultSRF allocates an SRF of DefaultSRFFraction of the L2.
func DefaultSRF(m *sim.Machine) *SRF {
	s, err := NewSRF(m, uint64(float64(m.Config().L2Bytes)*DefaultSRFFraction))
	if err != nil {
		panic(err) // unreachable: the fraction is < 1
	}
	return s
}

// Capacity returns the SRF size in bytes.
func (s *SRF) Capacity() uint64 { return s.capacity }

// Used returns the bytes currently allocated.
func (s *SRF) Used() uint64 { return s.used }

// MaxUsed returns the occupancy high-water mark, surviving Resets —
// how much SRF the compiled program actually needed at its widest
// phase.
func (s *SRF) MaxUsed() uint64 { return s.maxUsed }

// Free returns the bytes still available.
func (s *SRF) Free() uint64 { return s.capacity - s.used }

// Alloc reserves bytes in the SRF, aligned to 64 bytes so strip buffers
// start on cache-line boundaries.
func (s *SRF) Alloc(name string, bytes uint64) (SRFBuf, error) {
	const align = 64
	bytes = (bytes + align - 1) &^ uint64(align-1)
	if bytes == 0 {
		bytes = align
	}
	if s.used+bytes > s.capacity {
		return SRFBuf{}, fmt.Errorf("svm: SRF overflow allocating %q: %d bytes needed, %d free", name, bytes, s.Free())
	}
	b := SRFBuf{Name: name, Base: s.Region.Base + s.used, Size: bytes}
	s.used += bytes
	if s.used > s.maxUsed {
		s.maxUsed = s.used
	}
	if s.obs != nil {
		s.obs.Gauge("svm.srf.used_bytes").Set(float64(s.used))
		s.obs.Gauge("svm.srf.occupancy").Set(float64(s.maxUsed) / float64(s.capacity))
	}
	s.allocs = append(s.allocs, b)
	return b, nil
}

// Reset frees every allocation (between compiled programs sharing one
// machine).
func (s *SRF) Reset() {
	s.used = 0
	s.allocs = s.allocs[:0]
}

// Allocs returns all current allocations.
func (s *SRF) Allocs() []SRFBuf { return s.allocs }

// Residency returns the fraction of SRF bytes currently resident in
// the machine's L2 — the pinning diagnostic used by the paper's
// "measurements of cache miss rates on the SRF".
func (s *SRF) Residency(m *sim.Machine) float64 {
	if s.used == 0 {
		return 1
	}
	return float64(m.Mem.L2.ResidentBytes(s.Region.Base, s.used)) / float64(s.used)
}

// ElemAddr returns the simulated address of element i (of elemBytes
// each) within the buffer.
func (b SRFBuf) ElemAddr(i, elemBytes int) sim.Addr {
	return b.Base + uint64(i*elemBytes)
}

// End returns one past the buffer's last byte.
func (b SRFBuf) End() sim.Addr { return b.Base + b.Size }
