package extrace

import (
	"bufio"
	"io"
)

// streamInput is where the v2 chunk decoder's bytes come from: a
// bufio-buffered stream, served from the buffer window where a request
// fits and copied into a reusable scratch buffer where it does not.
type streamInput struct {
	br      *bufio.Reader
	scratch []byte
}

// next returns the next n bytes of the stream. The returned slice is
// valid only until the following next/skip call. At a clean end of
// stream it returns (nil, io.EOF); a short tail returns the partial
// bytes together with io.ErrUnexpectedEOF so the caller can inspect what
// is there (the index footer is recognized from a partial header read).
func (s *streamInput) next(n int) ([]byte, error) {
	// Serve straight out of the bufio window when the request fits —
	// no copy; chunk payloads larger than the buffer fall back to one
	// ReadFull into scratch.
	if p, err := s.br.Peek(n); err == nil {
		s.br.Discard(n)
		return p, nil
	}
	if cap(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	p := s.scratch[:n]
	m, err := io.ReadFull(s.br, p)
	if err == io.EOF && m == 0 {
		return nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF || (err == io.EOF && m > 0) {
		return p[:m], io.ErrUnexpectedEOF
	}
	return p[:m], err
}

// skip discards n bytes, stepping over an indexed chunk without
// decoding it.
func (s *streamInput) skip(n int64) error {
	for n > 0 {
		step := n
		const maxStep = 1 << 30
		if step > maxStep {
			step = maxStep
		}
		d, err := s.br.Discard(int(step))
		n -= int64(d)
		if err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
