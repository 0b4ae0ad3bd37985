// Package trace defines memory-reference traces: the fundamental input of
// the cache simulator. A trace is a sequence of Ref records (address, access
// kind, size). The package provides in-memory traces, streaming interfaces,
// the classic Dinero "din" labels, and synthetic generators used by tests
// and benchmarks; internal/extrace reads and writes the din format.
package trace

import (
	"fmt"
	"io"
)

// Kind is the access type of a memory reference, matching the label codes
// of the Dinero din format.
type Kind uint8

const (
	// Read is a data read access (din label 0).
	Read Kind = iota
	// Write is a data write access (din label 1).
	Write
	// Fetch is an instruction fetch (din label 2). The paper focuses on
	// data caches, but the simulator is general and benchmarks may carry
	// instruction references.
	Fetch
)

// String returns the conventional name of the access kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Fetch:
		return "fetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// DinLabel returns the Dinero din-format numeric label for the kind.
func (k Kind) DinLabel() int {
	return int(k)
}

// Ref is a single memory reference.
type Ref struct {
	// Addr is the byte address of the reference.
	Addr uint64
	// Kind distinguishes reads, writes and instruction fetches.
	Kind Kind
	// Size is the access width in bytes. Zero means "default" (1 byte),
	// matching the paper's byte-granularity address arithmetic.
	Size uint8
}

// EffectiveSize returns the access width, treating 0 as 1 byte.
func (r Ref) EffectiveSize() int {
	if r.Size == 0 {
		return 1
	}
	return int(r.Size)
}

// LastByte returns the address of the last byte touched by the reference.
func (r Ref) LastByte() uint64 {
	return r.Addr + uint64(r.EffectiveSize()) - 1
}

// String renders the reference in din format ("<label> <hex-addr>").
func (r Ref) String() string {
	return fmt.Sprintf("%d %x", r.Kind.DinLabel(), r.Addr)
}

// Source yields references one at a time. Next returns io.EOF after the
// final reference.
type Source interface {
	Next() (Ref, error)
}

// Sink consumes references.
type Sink interface {
	Emit(Ref) error
}

// Trace is an in-memory reference sequence.
type Trace struct {
	refs []Ref
}

// New returns an empty trace with capacity for n references.
func New(n int) *Trace {
	return &Trace{refs: make([]Ref, 0, n)}
}

// FromRefs wraps an existing slice (not copied) as a Trace.
func FromRefs(refs []Ref) *Trace {
	return &Trace{refs: refs}
}

// Emit appends a reference. It never fails; the error return satisfies Sink.
func (t *Trace) Emit(r Ref) error {
	t.refs = append(t.refs, r)
	return nil
}

// Append appends a reference without the Sink error plumbing.
func (t *Trace) Append(r Ref) { t.refs = append(t.refs, r) }

// Len returns the number of references.
func (t *Trace) Len() int { return len(t.refs) }

// At returns the i-th reference.
func (t *Trace) At(i int) Ref { return t.refs[i] }

// Refs returns the underlying slice. Callers must not grow it.
func (t *Trace) Refs() []Ref { return t.refs }

// Reader returns a Source that iterates over the trace.
func (t *Trace) Reader() Source { return &sliceSource{refs: t.refs} }

// Reads reports how many references are of Kind Read.
func (t *Trace) Reads() int { return t.count(Read) }

// Writes reports how many references are of Kind Write.
func (t *Trace) Writes() int { return t.count(Write) }

func (t *Trace) count(k Kind) int {
	n := 0
	for _, r := range t.refs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// AddrRange returns the minimum and maximum byte addresses touched by the
// trace. ok is false for an empty trace.
func (t *Trace) AddrRange() (lo, hi uint64, ok bool) {
	if len(t.refs) == 0 {
		return 0, 0, false
	}
	lo, hi = t.refs[0].Addr, t.refs[0].LastByte()
	for _, r := range t.refs[1:] {
		if r.Addr < lo {
			lo = r.Addr
		}
		if lb := r.LastByte(); lb > hi {
			hi = lb
		}
	}
	return lo, hi, true
}

type sliceSource struct {
	refs []Ref
	pos  int
}

func (s *sliceSource) Next() (Ref, error) {
	if s.pos >= len(s.refs) {
		return Ref{}, io.EOF
	}
	r := s.refs[s.pos]
	s.pos++
	return r, nil
}
