package svm

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream is a sequence of packed records flowing between gathers,
// kernels and scatters. Unlike an Array, a stream's simulated home is
// the SRF: the compiler assigns it per-strip buffers there. Its host
// storage follows the same rule where the schedule allows it: a stream
// the compiler binds as a ring keeps only the nbuf strips that can be
// live at once, element i at slot i mod the ring length, so an element
// can be read only while its strip is live. Every other stream keeps
// all N elements, allocated on first touch, so a graph that is only
// analysed never pays for its streams.
type Stream struct {
	Name   string
	Fields []Field // packed: offsets are within the stream record
	N      int     // logical length in elements

	data []float64
	// ring is the ring length in elements, 0 for full storage; recip
	// is ⌈2^64/ring⌉ (0 for full storage), so that slot divides by a
	// multiply-high.
	ring  int
	recip uint64

	// buffers are the double-buffered SRF strips assigned by the
	// compiler (nil until compiled).
	buffers []SRFBuf
}

// NewStream creates a stream of n elements whose record consists of the
// given packed fields.
func NewStream(name string, n int, fields ...Field) *Stream {
	if n <= 0 {
		panic(fmt.Sprintf("svm: stream %s with %d elements", name, n))
	}
	packed := make([]Field, len(fields))
	off := 0
	for i, f := range fields {
		if f.Size <= 0 {
			panic(fmt.Sprintf("svm: stream %s field %s size %d", name, f.Name, f.Size))
		}
		packed[i] = Field{Name: f.Name, Offset: off, Size: f.Size}
		off += f.Size
	}
	return &Stream{Name: name, Fields: packed, N: n}
}

// StreamOf creates a stream shaped to carry the selected fields of the
// array's layout (the result of a gather).
func StreamOf(name string, n int, src RecordLayout, selected []int) *Stream {
	fields := make([]Field, len(selected))
	for i, fi := range selected {
		fields[i] = F(src.Fields[fi].Name, src.Fields[fi].Size)
	}
	return NewStream(name, n, fields...)
}

// ElemBytes returns the packed byte size of one stream element.
func (s *Stream) ElemBytes() int {
	n := 0
	for _, f := range s.Fields {
		n += f.Size
	}
	return n
}

// NumFields returns the per-element field count.
func (s *Stream) NumFields() int { return len(s.Fields) }

// storage returns the host storage, allocating all N elements on the
// first touch of a stream bound to no ring.
func (s *Stream) storage() []float64 {
	if s.data == nil {
		s.data = make([]float64, s.N*len(s.Fields))
	}
	return s.data
}

// slot returns where element i lives in storage: i itself for full
// storage, i mod ring for a ring. The quotient is a multiply-high by
// recip, exact for i and ring below 2^32 (Lemire et al., "Faster
// remainder by direct computation"), which BindBuffers ensures.
func (s *Stream) slot(i int) int {
	q, _ := bits.Mul64(uint64(i), s.recip)
	return i - int(q)*s.ring
}

// At returns field f of element i.
func (s *Stream) At(i, f int) float64 { return s.storage()[s.slot(i)*len(s.Fields)+f] }

// Set assigns field f of element i.
func (s *Stream) Set(i, f int, v float64) { s.storage()[s.slot(i)*len(s.Fields)+f] = v }

// BindBuffers attaches the SRF strip buffers the compiler assigned and
// sizes the host storage. ringElems > 0 asks for a ring of that many
// elements; the compiler passes nbuf×StripElems for an edge whose
// schedule finishes every reader of a strip before the writer of the
// strip nbuf later starts, so strip s shares its slots only with
// strips s±nbuf, s±2nbuf, .... A ring below 2 elements (whose recip
// would overflow) or no shorter than the stream is full storage. So is
// binding a bound stream to a different ring (the same graph compiled
// again with other options, or one stream on edges that disagree): the
// earlier binding's tasks may still run, and full storage suits any
// schedule.
func (s *Stream) BindBuffers(bufs []SRFBuf, ringElems int) {
	if ringElems < 2 || ringElems >= s.N || s.N > math.MaxUint32 || (s.Buffered() && ringElems != s.ring) {
		ringElems = 0
	}
	if ringElems != s.ring {
		s.ring, s.recip, s.data = ringElems, 0, nil
		if ringElems > 0 {
			s.recip = math.MaxUint64/uint64(ringElems) + 1
			s.data = make([]float64, ringElems*len(s.Fields))
		}
	}
	s.buffers = bufs
}

// Ring returns the length in elements of the stream's ring storage, or
// 0 if it keeps all N elements.
func (s *Stream) Ring() int { return s.ring }

// checkRange panics unless elements [start, start+n) are in the stream
// and, for a ring, fit in it at once.
func (s *Stream) checkRange(what string, start, n int) {
	if start < 0 || n < 0 || start+n > s.N {
		panic(fmt.Sprintf("svm: %s range [%d,%d) out of [0,%d)", what, start, start+n, s.N))
	}
	if s.ring > 0 && n > s.ring {
		panic(fmt.Sprintf("svm: %s range [%d,%d) exceeds the %d-element ring of stream %s", what, start, start+n, s.ring, s.Name))
	}
}

// Buffer returns the SRF buffer used by strip number strip (round-robin
// over the double buffers). Panics if the stream is not compiled.
func (s *Stream) Buffer(strip int) SRFBuf {
	if len(s.buffers) == 0 {
		panic(fmt.Sprintf("svm: stream %s has no SRF buffers bound", s.Name))
	}
	return s.buffers[strip%len(s.buffers)]
}

// Buffered reports whether SRF buffers are bound.
func (s *Stream) Buffered() bool { return len(s.buffers) > 0 }

// FieldIndex returns the index of the named field, or -1.
func (s *Stream) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}
