package extrace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"

	"memexplore/internal/trace"
)

// mxt v2 index footer ("MXTI01"). WriteBinaryV2 appends it after the
// last chunk so sweeps can consult per-chunk summaries — byte extent,
// record mix, and the exact set of 64-byte start-address granules —
// and seek past chunks their filters prove irrelevant, without
// decoding them. The footer is self-framed and CRC'd:
//
//	magic "MXTI01\r\n" (8 bytes)
//	body length (uint32 LE)
//	body (varint-coded, see below)
//	CRC-32 (IEEE) of the body (uint32 LE)
//	trailer (16 bytes): footer byte offset (uint64 LE) + "MXTIEND\n"
//
// The fixed-size trailer lets a seekable reader locate the footer in
// one ReadAt from the end of the file; streaming readers recognize the
// magic where a chunk header would start and parse the footer inline.
// A truncated or corrupt footer is never fatal for a valid chunk
// stream: parsing degrades to index-less reading (FuzzParseIndexFooter
// pins this).
//
// Body layout (uvarint unless noted):
//
//	flags                  bit 0: stats profile present; bit 1: the
//	                       artifact was sampled at transcode time
//	chunk count
//	records                records stored in this file
//	source records         records before transcode-time sampling
//	[if sampled]           sample rate (float64 bits, 8 bytes LE),
//	                       sample seed (uint64 LE, 8 bytes),
//	                       sample granule (bytes)
//	[if profile]           min addr, max addr, footprint lines,
//	                       profile flags (bit 0: footprint saturated),
//	                       sequential frac (float64 bits, 8 bytes LE),
//	                       stride count then per stride
//	                       zigzag(stride) + count, stride other
//	per chunk              frame bytes (header+payload), records,
//	                       reads, writes (fetches are the remainder),
//	                       min granule, max−min granule, granule count
//	                       (0: summary overflowed, chunk not
//	                       skippable) then count−1 ascending deltas
//
// Chunk byte offsets are not stored: they are the running sum of the
// frame lengths from the end of the stream magic, and the sum is
// validated against the footer offset, so a footer that disagrees
// with the chunk framing is rejected whole.
const (
	indexMagic     = "MXTI01\r\n"
	indexTailMagic = "MXTIEND\n"
	indexTailBytes = 16

	// IndexGranule is the fixed address granularity (bytes) of the
	// per-chunk granule summaries — the ingest statistics granule, so
	// any coarser sweep filter granule is a right-shift away.
	IndexGranule = LineGranule

	// indexMaxGranules caps the per-chunk granule summary; a chunk
	// touching more distinct granules records an overflowed (empty)
	// summary and is always decoded.
	indexMaxGranules = 512

	// maxIndexFooterBytes bounds how much a reader will buffer for a
	// footer — far above any real index, just a hostile-input guard.
	maxIndexFooterBytes = 64 << 20
)

const (
	indexFlagProfile = 1 << 0
	indexFlagSampled = 1 << 1

	profileFlagSaturated = 1 << 0
)

// ChunkIndexEntry summarizes one mxt v2 chunk for skip decisions.
type ChunkIndexEntry struct {
	// Offset is the byte offset of the chunk header in the
	// decompressed stream; Bytes is the whole frame length.
	Offset int64
	Bytes  int64
	// Records partitions into Reads + Writes + Fetches().
	Records int64
	Reads   int64
	Writes  int64
	// MinGranule and MaxGranule bound the IndexGranule-sized granules
	// of the chunk's record start addresses.
	MinGranule uint64
	MaxGranule uint64
	// Granules lists the distinct start-address granules in ascending
	// order, exactly — or nil when the chunk touched more than
	// indexMaxGranules of them, in which case the chunk must be
	// decoded.
	Granules []uint64
}

// Fetches returns the instruction-fetch record count of the chunk.
func (e *ChunkIndexEntry) Fetches() int64 { return e.Records - e.Reads - e.Writes }

// IndexProfile is the encode-time IngestStats snapshot stored in the
// footer: the profile fields a reader cannot reconstruct for chunks it
// skipped. It is byte-for-byte the profile a full decode of the same
// stream accumulates.
type IndexProfile struct {
	MinAddr            uint64
	MaxAddr            uint64
	FootprintLines     int
	FootprintSaturated bool
	Strides            map[int64]int64
	StrideOther        int64
	SequentialFrac     float64
}

// TraceIndex is the parsed MXTI01 footer.
type TraceIndex struct {
	Chunks []ChunkIndexEntry
	// Records counts the records stored in the file; SourceRecords the
	// records of the original stream before transcode-time sampling
	// (equal when Sampled is false).
	Records       int64
	SourceRecords int64

	// Sampled marks an artifact thinned at transcode time; rate, seed
	// and the hash granule are recorded so sweeps rescale correctly
	// and refuse conflicting re-sampling.
	Sampled       bool
	SampleRate    float64
	SampleSeed    uint64
	SampleGranule int

	// HasProfile guards Profile.
	HasProfile bool
	Profile    IndexProfile
}

// ChunkPolicy decides, from the index entry alone, whether a chunk can
// be skipped: true means no record of it survives the sweep's filter, so
// the reader steps over its frame without decoding it. It runs on the
// decode goroutine and must be pure: read-only over state that does not
// change during the stream.
type ChunkPolicy func(*ChunkIndexEntry) bool

// --- encoding ----------------------------------------------------------

// indexBuilder accumulates per-chunk entries on the write side.
type indexBuilder struct {
	chunks  []ChunkIndexEntry
	off     int64 // running offset: next chunk's header position
	gbuf    []uint64
	records int64
	reads   int64
	writes  int64
}

func newIndexBuilder() *indexBuilder {
	return &indexBuilder{off: int64(len(binaryV2Magic))}
}

// addChunk records the entry for one encoded chunk of frameBytes bytes.
func (b *indexBuilder) addChunk(recs []trace.Ref, frameBytes int) {
	e := ChunkIndexEntry{Offset: b.off, Bytes: int64(frameBytes), Records: int64(len(recs))}
	b.gbuf = b.gbuf[:0]
	for _, r := range recs {
		switch r.Kind {
		case trace.Read:
			e.Reads++
		case trace.Write:
			e.Writes++
		}
		b.gbuf = append(b.gbuf, r.Addr/IndexGranule)
	}
	slices.Sort(b.gbuf)
	distinct := b.gbuf[:0]
	for i, g := range b.gbuf {
		if i == 0 || g != distinct[len(distinct)-1] {
			distinct = append(distinct, g)
		}
	}
	e.MinGranule = distinct[0]
	e.MaxGranule = distinct[len(distinct)-1]
	if len(distinct) <= indexMaxGranules {
		e.Granules = append([]uint64(nil), distinct...)
	}
	b.off += int64(frameBytes)
	b.records += e.Records
	b.reads += e.Reads
	b.writes += e.Writes
	b.chunks = append(b.chunks, e)
}

// appendFooter encodes the footer (magic through trailer) onto dst.
// sourceRecords and the sampling triple describe transcode-time
// sampling; profile is the encode-time stats snapshot (nil to omit).
func (b *indexBuilder) appendFooter(dst []byte, sourceRecords int64, sampled bool, rate float64, seed uint64, granule int, profile *IndexProfile) []byte {
	footerOff := b.off

	var body []byte
	flags := uint64(0)
	if profile != nil {
		flags |= indexFlagProfile
	}
	if sampled {
		flags |= indexFlagSampled
	}
	body = binary.AppendUvarint(body, flags)
	body = binary.AppendUvarint(body, uint64(len(b.chunks)))
	body = binary.AppendUvarint(body, uint64(b.records))
	body = binary.AppendUvarint(body, uint64(sourceRecords))
	if sampled {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(rate))
		body = binary.LittleEndian.AppendUint64(body, seed)
		body = binary.AppendUvarint(body, uint64(granule))
	}
	if profile != nil {
		body = binary.AppendUvarint(body, profile.MinAddr)
		body = binary.AppendUvarint(body, profile.MaxAddr)
		body = binary.AppendUvarint(body, uint64(profile.FootprintLines))
		pf := uint64(0)
		if profile.FootprintSaturated {
			pf |= profileFlagSaturated
		}
		body = binary.AppendUvarint(body, pf)
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(profile.SequentialFrac))
		strides := make([]int64, 0, len(profile.Strides))
		for s := range profile.Strides {
			strides = append(strides, s)
		}
		sort.Slice(strides, func(i, j int) bool { return strides[i] < strides[j] })
		body = binary.AppendUvarint(body, uint64(len(strides)))
		for _, s := range strides {
			body = binary.AppendUvarint(body, zigzag(s))
			body = binary.AppendUvarint(body, uint64(profile.Strides[s]))
		}
		body = binary.AppendUvarint(body, uint64(profile.StrideOther))
	}
	for i := range b.chunks {
		e := &b.chunks[i]
		body = binary.AppendUvarint(body, uint64(e.Bytes))
		body = binary.AppendUvarint(body, uint64(e.Records))
		body = binary.AppendUvarint(body, uint64(e.Reads))
		body = binary.AppendUvarint(body, uint64(e.Writes))
		body = binary.AppendUvarint(body, e.MinGranule)
		body = binary.AppendUvarint(body, e.MaxGranule-e.MinGranule)
		body = binary.AppendUvarint(body, uint64(len(e.Granules)))
		for j := 1; j < len(e.Granules); j++ {
			body = binary.AppendUvarint(body, e.Granules[j]-e.Granules[j-1])
		}
	}

	dst = append(dst, indexMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(footerOff))
	dst = append(dst, indexTailMagic...)
	return dst
}

// --- decoding ----------------------------------------------------------

// byteCursor walks a varint-coded body with sticky failure.
type byteCursor struct {
	p   []byte
	bad bool
}

func (c *byteCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *byteCursor) u64() uint64 {
	if len(c.p) < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.p)
	c.p = c.p[8:]
	return v
}

// parseIndexBody decodes a CRC-validated footer body. chunksEnd is the
// byte offset where the chunk stream ended (the footer's own offset);
// the per-chunk frame lengths must sum exactly to it, so an index that
// disagrees with the actual framing is rejected. Any inconsistency
// returns an error — callers degrade to index-less reading.
func parseIndexBody(body []byte, chunksEnd int64) (*TraceIndex, error) {
	c := &byteCursor{p: body}
	flags := c.uvarint()
	chunkCount := c.uvarint()
	records := c.uvarint()
	sourceRecords := c.uvarint()
	if c.bad || flags&^uint64(indexFlagProfile|indexFlagSampled) != 0 {
		return nil, fmt.Errorf("extrace: corrupt index header")
	}
	ix := &TraceIndex{
		Records:       int64(records),
		SourceRecords: int64(sourceRecords),
	}
	if flags&indexFlagSampled != 0 {
		ix.Sampled = true
		ix.SampleRate = math.Float64frombits(c.u64())
		ix.SampleSeed = c.u64()
		ix.SampleGranule = int(c.uvarint())
		if c.bad || ix.SampleRate <= 0 || ix.SampleRate > 1 || ix.SampleRate != ix.SampleRate ||
			ix.SampleGranule <= 0 || ix.SampleGranule&(ix.SampleGranule-1) != 0 {
			return nil, fmt.Errorf("extrace: corrupt index sampling metadata")
		}
	}
	if flags&indexFlagProfile != 0 {
		ix.HasProfile = true
		p := &ix.Profile
		p.MinAddr = c.uvarint()
		p.MaxAddr = c.uvarint()
		p.FootprintLines = int(c.uvarint())
		pf := c.uvarint()
		p.FootprintSaturated = pf&profileFlagSaturated != 0
		p.SequentialFrac = math.Float64frombits(c.u64())
		nStrides := c.uvarint()
		if c.bad || pf&^uint64(profileFlagSaturated) != 0 || nStrides > reportedStrides ||
			p.FootprintLines < 0 || p.SequentialFrac < 0 || p.SequentialFrac > 1 || p.SequentialFrac != p.SequentialFrac {
			return nil, fmt.Errorf("extrace: corrupt index profile")
		}
		p.Strides = make(map[int64]int64, nStrides)
		for i := uint64(0); i < nStrides; i++ {
			s := unzigzag(c.uvarint())
			n := c.uvarint()
			p.Strides[s] = int64(n)
		}
		p.StrideOther = int64(c.uvarint())
		if c.bad || p.StrideOther < 0 {
			return nil, fmt.Errorf("extrace: corrupt index profile strides")
		}
	}
	if chunkCount > uint64(len(c.p))+1 { // each entry is ≥ 7 body bytes; cheap pre-bound
		return nil, fmt.Errorf("extrace: implausible index chunk count %d", chunkCount)
	}
	ix.Chunks = make([]ChunkIndexEntry, 0, chunkCount)
	off := int64(len(binaryV2Magic))
	var sumRecords int64
	for i := uint64(0); i < chunkCount; i++ {
		var e ChunkIndexEntry
		e.Offset = off
		e.Bytes = int64(c.uvarint())
		e.Records = int64(c.uvarint())
		e.Reads = int64(c.uvarint())
		e.Writes = int64(c.uvarint())
		e.MinGranule = c.uvarint()
		e.MaxGranule = e.MinGranule + c.uvarint()
		nGran := c.uvarint()
		if c.bad || e.Bytes < v2HeaderBytes || e.Records < 1 || e.Records > v2MaxChunkRecords ||
			e.Reads < 0 || e.Writes < 0 || e.Reads+e.Writes > e.Records ||
			e.MaxGranule < e.MinGranule || nGran > indexMaxGranules || (nGran > 0 && uint64(e.Records) < nGran) {
			return nil, fmt.Errorf("extrace: corrupt index entry %d", i)
		}
		if nGran > 0 {
			e.Granules = make([]uint64, nGran)
			e.Granules[0] = e.MinGranule
			for j := uint64(1); j < nGran; j++ {
				d := c.uvarint()
				if c.bad || d == 0 {
					return nil, fmt.Errorf("extrace: corrupt index granule list in entry %d", i)
				}
				e.Granules[j] = e.Granules[j-1] + d
			}
			if e.Granules[nGran-1] != e.MaxGranule {
				return nil, fmt.Errorf("extrace: index granule list of entry %d does not span its range", i)
			}
		}
		off += e.Bytes
		sumRecords += e.Records
		ix.Chunks = append(ix.Chunks, e)
	}
	if c.bad || len(c.p) != 0 {
		return nil, fmt.Errorf("extrace: index body length mismatch")
	}
	if off != chunksEnd {
		return nil, fmt.Errorf("extrace: index frames cover %d bytes, chunks end at %d", off, chunksEnd)
	}
	if sumRecords != ix.Records {
		return nil, fmt.Errorf("extrace: index records mismatch (%d vs %d)", sumRecords, ix.Records)
	}
	if !ix.Sampled && ix.SourceRecords != ix.Records {
		return nil, fmt.Errorf("extrace: unsampled index with source records %d != %d", ix.SourceRecords, ix.Records)
	}
	return ix, nil
}

// probeIndex locates and parses the footer of a seekable, uncompressed
// mxt v2 stream of the given total size via one ReadAt from the tail.
// It returns nil — never an error — when no valid index is present:
// missing, truncated or corrupt footers all degrade to index-less
// streaming.
func probeIndex(ra io.ReaderAt, size int64) *TraceIndex {
	minFooter := int64(len(indexMagic) + 4 + 4)
	if size < int64(len(binaryV2Magic))+minFooter+indexTailBytes {
		return nil
	}
	var tail [indexTailBytes]byte
	if _, err := ra.ReadAt(tail[:], size-indexTailBytes); err != nil {
		return nil
	}
	if string(tail[8:]) != indexTailMagic {
		return nil
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	footerLen := size - indexTailBytes - footerOff
	if footerOff < int64(len(binaryV2Magic)) || footerLen < minFooter || footerLen > maxIndexFooterBytes {
		return nil
	}
	footer := make([]byte, footerLen)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil
	}
	if string(footer[:len(indexMagic)]) != indexMagic {
		return nil
	}
	bodyLen := int64(binary.LittleEndian.Uint32(footer[len(indexMagic) : len(indexMagic)+4]))
	if bodyLen != footerLen-minFooter {
		return nil
	}
	body := footer[len(indexMagic)+4 : len(indexMagic)+4+int(bodyLen)]
	wantCRC := binary.LittleEndian.Uint32(footer[len(footer)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil
	}
	ix, err := parseIndexBody(body, footerOff)
	if err != nil {
		return nil
	}
	return ix
}

// ProbeIndex locates and parses the MXTI01 footer of an uncompressed
// mxt v2 stream without consuming or moving it, via io.ReaderAt +
// io.Seeker (the offset is restored). It returns nil when the source is
// not seekable, not an indexed v2 stream, or the footer is invalid —
// callers treat all of those as "no index". Gzip-compressed artifacts
// always return nil here; their footer is discovered when a streaming
// Reader reaches it.
func ProbeIndex(r io.Reader) *TraceIndex {
	ra, ok := r.(io.ReaderAt)
	if !ok {
		return nil
	}
	sk, ok := r.(io.Seeker)
	if !ok {
		return nil
	}
	_, size, err := seekBounds(sk)
	if err != nil {
		return nil
	}
	var magic [len(binaryV2Magic)]byte
	if _, err := ra.ReadAt(magic[:], 0); err != nil || string(magic[:]) != binaryV2Magic {
		return nil
	}
	return probeIndex(ra, size)
}

// matches reports whether the counts st accumulated over a whole
// stream — records, reads and writes — equal the index's totals: the
// check a trusted reader makes before taking the footer's profile.
func (ix *TraceIndex) matches(st *IngestStats) bool {
	var reads, writes int64
	for i := range ix.Chunks {
		reads += ix.Chunks[i].Reads
		writes += ix.Chunks[i].Writes
	}
	return st.Records == ix.Records && st.Reads == reads && st.Writes == writes
}

// applyProfile substitutes the footer's encode-time profile fields into
// st — the fields a reader that skipped chunks cannot reconstruct.
func (ix *TraceIndex) applyProfile(st *IngestStats) {
	p := ix.Profile
	st.MinAddr = p.MinAddr
	st.MaxAddr = p.MaxAddr
	st.FootprintLines = p.FootprintLines
	st.FootprintBytes = p.FootprintLines * LineGranule
	st.FootprintSaturated = p.FootprintSaturated
	st.Strides = make(map[int64]int64, len(p.Strides))
	for s, n := range p.Strides {
		st.Strides[s] = n
	}
	st.StrideOther = p.StrideOther
	st.SequentialFrac = p.SequentialFrac
}
