// Package extrace ingests external memory-reference traces — the
// workloads the paper validates its analytical models against — without
// ever materializing them. A Reader streams a Dinero-style textual ".din"
// trace or the compact mxt binary format (both transparently
// gzip-decompressed) into fixed-size chunks of trace.Ref, so one
// sequential pass over an arbitrarily large trace can drive the batched
// sweep engine in constant memory. Malformed input is reported with line
// numbers and byte offsets (or skipped, when Options.SkipMalformed is
// set), hard resource limits bound record counts and line lengths, and
// ingest-time statistics (footprint, access mix, stride histogram) are
// accumulated in the same pass — or, on a seekable mxt v2 file with a
// profiled index footer, read from the footer. WriteDin and WriteBinaryV2
// are the matching encoders, so synthetic kernel traces round-trip
// through the formats; mxt v1 is read but no longer written.
//
// See docs/TRACE_FORMAT.md for the byte-level format reference.
package extrace

import (
	"errors"
	"fmt"
)

const (
	// DefaultMaxLineBytes bounds a single textual din line (including its
	// newline) when Options.MaxLineBytes is zero.
	DefaultMaxLineBytes = 64 * 1024

	// LineGranule is the fixed granularity (bytes) at which ingest
	// statistics count "distinct lines touched". It is a reporting
	// granularity only; the sweep's cache configurations are unaffected.
	LineGranule = 64

	// maxFootprintGranules caps the distinct-granule set so a pathological
	// trace cannot grow ingest-side memory without bound; beyond it the
	// footprint count saturates (IngestStats.FootprintSaturated).
	maxFootprintGranules = 1 << 20

	// maxStrideEntries caps the exact stride histogram kept during ingest;
	// strides first seen after the cap aggregate under StrideOther.
	maxStrideEntries = 1024

	// reportedStrides is how many top strides an IngestStats snapshot
	// retains; the rest fold into StrideOther.
	reportedStrides = 16
)

// Options parameterizes a Reader. The zero value reads any well-formed
// trace with the default limits and fails on the first malformed record.
type Options struct {
	// MaxRecords, when positive, bounds the accepted record count: a trace
	// with more records fails with ErrRecordLimit. Skipped malformed
	// records do not count against the limit.
	MaxRecords int64 `json:"max_records,omitempty"`
	// MaxLineBytes bounds one textual din line including its newline
	// (default DefaultMaxLineBytes). Longer lines are malformed.
	MaxLineBytes int `json:"max_line_bytes,omitempty"`
	// SkipMalformed makes the reader count and skip malformed records
	// (IngestStats.Rejects) instead of failing with *ParseError.
	// Structural damage that destroys framing — a truncated binary record,
	// gzip corruption — still fails: past it no record boundary is known.
	SkipMalformed bool `json:"skip_malformed,omitempty"`
}

// maxLine returns the effective textual line limit.
func (o Options) maxLine() int {
	if o.MaxLineBytes <= 0 {
		return DefaultMaxLineBytes
	}
	return o.MaxLineBytes
}

// ErrRecordLimit reports that a trace exceeded Options.MaxRecords. It is
// wrapped with the limit value; test with errors.Is.
var ErrRecordLimit = errors.New("extrace: trace exceeds the record limit")

// ParseError reports a malformed trace record. Offset is the byte offset
// of the offending line or record in the decompressed stream; Line is the
// 1-based line number for the textual format (0 for binary). Retrieve it
// with errors.As to read the position fields.
type ParseError struct {
	// Format is the detected trace format ("din" or "binary").
	Format string
	// Line is the 1-based line number (textual din only; 0 for binary).
	Line int64
	// Offset is the byte offset of the offending line/record start within
	// the decompressed stream.
	Offset int64
	// Reason says what is wrong with the record.
	Reason string
	// Err is the read error that cut a record short, if one did.
	Err error
}

// Unwrap returns the read error behind a truncated record, so a failing
// source (a body over its size limit, a dropped connection) stays
// visible to errors.Is and errors.As.
func (e *ParseError) Unwrap() error { return e.Err }

// Error renders the position and reason.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("extrace: %s line %d (byte offset %d): %s", e.Format, e.Line, e.Offset, e.Reason)
	}
	return fmt.Sprintf("extrace: %s record at byte offset %d: %s", e.Format, e.Offset, e.Reason)
}
