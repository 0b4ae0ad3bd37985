package extrace

import (
	"fmt"
	"sort"
	"strings"

	"memexplore/internal/trace"
)

// IngestStats summarizes everything a Reader observed. Streams
// accumulate it in the same pass that feeds the simulator; a seekable
// mxt v2 source with a profile-bearing MXTI01 footer counts records and
// kinds and takes the other fields from the footer, replaying its bytes
// only after a reject, an error or an abandoned read (see Reader.Stats
// and docs/TRACE_FORMAT.md). The JSON tags are the wire form served by
// POST /v1/explore-trace; they are stable API.
type IngestStats struct {
	// Format is the detected trace format: "din", "binary", or "" when
	// nothing was read yet.
	Format string `json:"format"`
	// Gzip reports whether the stream was gzip-compressed.
	Gzip bool `json:"gzip"`
	// Records is the number of accepted references.
	Records int64 `json:"records"`
	// Rejects counts malformed records skipped under Options.SkipMalformed.
	Rejects int64 `json:"rejects"`
	// BytesRead counts the wire bytes consumed from the underlying reader
	// (compressed bytes for gzip input), skipped chunks included.
	BytesRead int64 `json:"bytes_read"`

	// ChunksSkipped / RecordsSkipped count whole mxt v2 chunks (and the
	// records inside them) stepped over via the MXTI01 index instead of
	// decoded — the records still count in Records and the kind totals,
	// taken from the index entries.
	ChunksSkipped  int64 `json:"chunks_skipped,omitempty"`
	RecordsSkipped int64 `json:"records_skipped,omitempty"`

	// StoredSampleRate / StoredSampleSeed echo the transcode-time sampling
	// parameters recorded in the artifact's MXTI01 footer (zero for
	// unsampled artifacts): the stream IS a spatial sample of
	// StoredSourceRecords original records, thinned by the same seeded
	// hash the sweep-time filter uses.
	StoredSampleRate    float64 `json:"stored_sample_rate,omitempty"`
	StoredSampleSeed    uint64  `json:"stored_sample_seed,omitempty"`
	StoredSourceRecords int64   `json:"stored_source_records,omitempty"`

	// Reads, Writes, Fetches partition the accepted records by kind.
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	Fetches int64 `json:"fetches"`

	// MinAddr and MaxAddr bound the touched byte addresses (valid when
	// Records > 0).
	MinAddr uint64 `json:"min_addr"`
	MaxAddr uint64 `json:"max_addr"`

	// FootprintLines counts the distinct LineGranule-byte granules
	// touched; FootprintBytes is that count scaled to bytes — an upper
	// bound on (and for dense traces a good estimate of) the data
	// footprint. The count saturates at a fixed cap so ingest memory is
	// bounded by the trace's footprint, never by its length.
	FootprintLines     int  `json:"footprint_lines"`
	FootprintBytes     int  `json:"footprint_bytes"`
	LineGranule        int  `json:"line_granule"`
	FootprintSaturated bool `json:"footprint_saturated,omitempty"`

	// Strides is the histogram of signed address deltas between
	// consecutive records, capped to the most common entries; the rest
	// aggregate under StrideOther. SequentialFrac is the fraction of
	// consecutive pairs with |delta| ≤ 8 bytes.
	Strides        map[int64]int64 `json:"strides,omitempty"`
	StrideOther    int64           `json:"stride_other,omitempty"`
	SequentialFrac float64         `json:"sequential_frac"`
}

// String renders a compact multi-line ingest report.
func (s IngestStats) String() string {
	var sb strings.Builder
	format := s.Format
	if format == "" {
		format = "unknown"
	}
	if s.Gzip {
		format += "+gzip"
	}
	fmt.Fprintf(&sb, "format          %s (%d wire bytes)\n", format, s.BytesRead)
	fmt.Fprintf(&sb, "records         %d (reads %d, writes %d, fetches %d, rejects %d)\n",
		s.Records, s.Reads, s.Writes, s.Fetches, s.Rejects)
	fmt.Fprintf(&sb, "address range   [%#x, %#x]\n", s.MinAddr, s.MaxAddr)
	sat := ""
	if s.FootprintSaturated {
		sat = " (saturated)"
	}
	fmt.Fprintf(&sb, "footprint       ~%d bytes (%d × %d-byte lines)%s\n",
		s.FootprintBytes, s.FootprintLines, s.LineGranule, sat)
	fmt.Fprintf(&sb, "sequential frac %.3f (|stride| ≤ 8)\n", s.SequentialFrac)
	if len(s.Strides) > 0 {
		sb.WriteString("top strides:\n")
		for _, st := range s.TopStrides() {
			fmt.Fprintf(&sb, "  %+6d : %d\n", st, s.Strides[st])
		}
		if s.StrideOther > 0 {
			fmt.Fprintf(&sb, "  other  : %d\n", s.StrideOther)
		}
	}
	return sb.String()
}

// TopStrides returns the retained strides ordered by descending count
// (ties by ascending stride).
func (s IngestStats) TopStrides() []int64 {
	out := make([]int64, 0, len(s.Strides))
	for st := range s.Strides {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if s.Strides[out[i]] != s.Strides[out[j]] {
			return s.Strides[out[i]] > s.Strides[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// accumulator is the constant-memory running state behind IngestStats.
// Decoders report rejected records only through reject(); note/noteBlock
// see accepted records only, so a rejected record can never reach the
// counts, the address range, the footprint, or the stride histogram.
type accumulator struct {
	st IngestStats

	prevAddr   uint64
	prevSet    bool
	sequential int64

	granules granuleSet
	// gcache is a 4-way direct-mapped cache of granules known to be
	// accounted for, short-circuiting the set probe on granule-local
	// streaks AND short-period alternations (a ±stride ping-pong between
	// two granules defeats a single-entry cache) — the ingest hot path.
	gcacheKey [4]uint64
	gcacheOK  [4]bool

	strides  strideTable
	overflow int64 // strides beyond maxStrideEntries
	// The current run of identical deltas, folded into the histogram only
	// when the delta changes (or at snapshot) — one table write per run
	// instead of one per record.
	runDelta int64
	runCount int64
	runSet   bool
}

// granuleSet is the footprint's distinct-granule set: one open-addressed
// slice of granule+1 keys (0 marks an empty slot), Mix64-hashed and
// linearly probed, doubling at 3/4 load. Like strideTable it keeps a Go
// map off the decode hot path.
type granuleSet struct {
	keys []uint64
	n    int
}

// add inserts g. A set holding maxFootprintGranules granules takes no
// new ones: add reports saturated for them instead.
func (s *granuleSet) add(g uint64) (saturated bool) {
	if s.keys == nil {
		s.keys = make([]uint64, 1024)
	}
	key := g + 1
	mask := len(s.keys) - 1
	i := int(Mix64(key)) & mask
	for s.keys[i] != 0 {
		if s.keys[i] == key {
			return false
		}
		i = (i + 1) & mask
	}
	if s.n >= maxFootprintGranules {
		return true
	}
	s.keys[i] = key
	s.n++
	if 4*s.n > 3*len(s.keys) {
		s.grow()
	}
	return false
}

// grow doubles the table and reinserts every key.
func (s *granuleSet) grow() {
	old := s.keys
	s.keys = make([]uint64, 2*len(old))
	mask := len(s.keys) - 1
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := int(Mix64(key)) & mask
		for s.keys[i] != 0 {
			i = (i + 1) & mask
		}
		s.keys[i] = key
	}
}

// strideTable is the exact stride histogram kept during ingest: an
// open-addressed hash table over plain arrays, sized at 4× the
// maxStrideEntries capacity so probe chains stay short. It replaces a
// Go map on the decode hot path — the stride mix of real traces churns
// through it once per delta run, and the array probe is several times
// cheaper than a map assign.
const strideTableSlots = 4 * maxStrideEntries // power of two

type strideTable struct {
	keys   []int64
	counts []int64 // 0 = empty slot (stored counts are always positive)
	n      int     // distinct strides stored, capped at maxStrideEntries
}

// add folds count occurrences of delta into the table, reporting false
// when the table is full and delta absent (the caller overflows it) —
// the same capped-histogram semantics the map had.
func (t *strideTable) add(delta, count int64) bool {
	if t.counts == nil {
		t.keys = make([]int64, strideTableSlots)
		t.counts = make([]int64, strideTableSlots)
	}
	i := int(Mix64(uint64(delta))) & (strideTableSlots - 1)
	for {
		if t.counts[i] == 0 {
			if t.n >= maxStrideEntries {
				return false
			}
			t.keys[i], t.counts[i] = delta, count
			t.n++
			return true
		}
		if t.keys[i] == delta {
			t.counts[i] += count
			return true
		}
		i = (i + 1) & (strideTableSlots - 1)
	}
}

// reject counts n records skipped as malformed. It is the only path by
// which rejection reaches the statistics.
func (a *accumulator) reject(n int64) {
	a.st.Rejects += n
}

// skipChunk accounts a whole indexed chunk stepped over without
// decoding: its record and kind counts come from the index entry. The
// profile fields (address range, footprint, strides) cannot be
// reconstructed for records never decoded — the Reader substitutes the
// footer's encode-time profile at end of stream instead — so the
// consecutive-pair chain is cut here to keep garbage deltas out of the
// local histogram.
func (a *accumulator) skipChunk(e *ChunkIndexEntry) {
	a.st.Records += e.Records
	a.st.Reads += e.Reads
	a.st.Writes += e.Writes
	a.st.Fetches += e.Fetches()
	a.st.ChunksSkipped++
	a.st.RecordsSkipped += e.Records
	a.prevSet = false
}

// note records one accepted reference.
func (a *accumulator) note(r trace.Ref) {
	a.st.Records++
	switch r.Kind {
	case trace.Read:
		a.st.Reads++
	case trace.Write:
		a.st.Writes++
	case trace.Fetch:
		a.st.Fetches++
	}
	last := r.LastByte()
	if a.st.Records == 1 {
		a.st.MinAddr, a.st.MaxAddr = r.Addr, last
	} else {
		if r.Addr < a.st.MinAddr {
			a.st.MinAddr = r.Addr
		}
		if last > a.st.MaxAddr {
			a.st.MaxAddr = last
		}
	}
	g0, g1 := r.Addr/LineGranule, last/LineGranule
	if w0 := g0 & 3; !a.gcacheOK[w0] || a.gcacheKey[w0] != g0 || g1 != g0 {
		for g := g0; g <= g1; g++ {
			if w := g & 3; a.gcacheOK[w] && a.gcacheKey[w] == g {
				continue
			}
			if a.granules.add(g) {
				a.st.FootprintSaturated = true
				break
			}
			a.gcacheKey[g&3], a.gcacheOK[g&3] = g, true
		}
	}
	if a.prevSet {
		delta := int64(r.Addr) - int64(a.prevAddr)
		if delta >= -8 && delta <= 8 {
			a.sequential++
		}
		if a.runSet && delta == a.runDelta {
			a.runCount++
		} else {
			a.flushRun()
			a.runDelta, a.runCount, a.runSet = delta, 1, true
		}
	}
	a.prevAddr = r.Addr
	a.prevSet = true
}

// noteBlock records a chunk of accepted references — the bulk-decode
// counterpart of note.
func (a *accumulator) noteBlock(refs []trace.Ref) {
	for i := range refs {
		a.note(refs[i])
	}
}

// count records only the record and kind totals of a chunk of accepted
// references — a trusted reader's path, whose other fields come from
// the index footer.
func (a *accumulator) count(refs []trace.Ref) {
	var kinds [4]int64
	for i := range refs {
		kinds[refs[i].Kind&3]++
	}
	a.st.Records += int64(len(refs))
	a.st.Reads += kinds[trace.Read]
	a.st.Writes += kinds[trace.Write]
	a.st.Fetches += kinds[trace.Fetch]
}

// flushRun folds the pending delta run into the histogram, preserving
// the capped-histogram semantics (a delta absent from a full table
// overflows).
func (a *accumulator) flushRun() {
	if !a.runSet || a.runCount == 0 {
		return
	}
	if !a.strides.add(a.runDelta, a.runCount) {
		a.overflow += a.runCount
	}
	a.runCount = 0
	a.runSet = false
}

// snapshot folds the running state into a reportable IngestStats.
func (a *accumulator) snapshot() IngestStats {
	a.flushRun()
	st := a.st
	st.LineGranule = LineGranule
	st.FootprintLines = a.granules.n
	st.FootprintBytes = st.FootprintLines * LineGranule
	if st.Records > 1 {
		st.SequentialFrac = float64(a.sequential) / float64(st.Records-1)
	}
	// Keep the most frequent strides; fold the tail into StrideOther.
	type sc struct {
		stride int64
		count  int64
	}
	all := make([]sc, 0, a.strides.n)
	for i, c := range a.strides.counts {
		if c > 0 {
			all = append(all, sc{a.strides.keys[i], c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].stride < all[j].stride
	})
	st.Strides = make(map[int64]int64, reportedStrides)
	st.StrideOther = a.overflow
	for i, e := range all {
		if i < reportedStrides {
			st.Strides[e.stride] = e.count
		} else {
			st.StrideOther += e.count
		}
	}
	return st
}
