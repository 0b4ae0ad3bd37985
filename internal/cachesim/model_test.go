package cachesim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"memexplore/internal/trace"
)

// refModel is an intentionally naive, obviously-correct set-associative LRU
// or FIFO cache used to cross-check the optimized simulator: each set is a
// slice of line addresses ordered most-recently-used (under FIFO,
// most-recently-filled) first, and a map holds the dirty bit of every
// resident line. A victim buffer is an MRU-first list of the last
// VictimLines evicted lines with their dirty bits: a main-cache miss
// found there is a hit that moves the line back into its set. It counts
// the memory traffic of its write policy — lines fetched, write-backs
// and write-throughs — the way Cache documents it. For 3C classification
// it keeps every line ever touched in a map and a fully associative LRU
// cache of the same capacity as one more such slice; a model without the
// map (newTrafficModel) skips classification.
type refModel struct {
	cfg    Config
	sets   [][]uint64
	dirty  map[uint64]bool
	victim []victimEntry
	seen   map[uint64]bool
	full   []uint64

	fetched, writeBacks, writeThroughs uint64
}

func newRefModel(cfg Config) *refModel {
	m := newTrafficModel(cfg)
	m.seen = map[uint64]bool{}
	return m
}

func newTrafficModel(cfg Config) *refModel {
	return &refModel{cfg: cfg, sets: make([][]uint64, cfg.NumSets()), dirty: map[uint64]bool{}}
}

// touchLRU looks la up in an MRU-first slice of at most capacity lines,
// moves or inserts it at the front and reports whether it was resident.
func touchLRU(lines []uint64, la uint64, capacity int) ([]uint64, bool) {
	for i, resident := range lines {
		if resident == la {
			copy(lines[1:i+1], lines[0:i])
			lines[0] = la
			return lines, true
		}
	}
	lines = append([]uint64{la}, lines...)
	if len(lines) > capacity {
		lines = lines[:capacity]
	}
	return lines, false
}

func (m *refModel) accessLine(la uint64, kind trace.Kind) (bool, MissClass) {
	si := la & uint64(m.cfg.NumSets()-1)
	write := kind == trace.Write
	var fullHit, seen bool
	if m.seen != nil {
		m.full, fullHit = touchLRU(m.full, la, m.cfg.NumLines())
		seen = m.seen[la]
		m.seen[la] = true
	}

	set := m.sets[si]
	hit, vi := false, -1
	for _, resident := range set {
		hit = hit || resident == la
	}
	for i := 0; !hit && i < len(m.victim); i++ { // the line's victim-buffer entry, if any
		if m.victim[i].lineAddr == la {
			vi = i
		}
	}
	switch {
	case hit:
		if m.cfg.Replacement != FIFO { // a FIFO hit does not reorder the set
			m.sets[si], _ = touchLRU(set, la, m.cfg.Assoc)
		}
		if write && m.cfg.WriteBack {
			m.dirty[la] = true
		}
	case vi < 0 && write && !m.cfg.WriteAllocate:
		// The write goes around the cache, whatever the write policy.
		m.writeThroughs++
	default:
		dirty := write && m.cfg.WriteBack
		if vi >= 0 {
			// A victim-buffer hit refills the line without a fetch.
			dirty = dirty || m.victim[vi].dirty
			m.victim = append(m.victim[:vi], m.victim[vi+1:]...)
			hit = true
		} else {
			m.fetched++
		}
		if len(set) == m.cfg.Assoc {
			m.evict(set[len(set)-1])
		}
		m.sets[si], _ = touchLRU(set, la, m.cfg.Assoc)
		m.dirty[la] = dirty
	}
	if write && !m.cfg.WriteBack && (hit || m.cfg.WriteAllocate) {
		m.writeThroughs++
	}
	switch {
	case hit:
		return true, NotMiss
	case !seen:
		return false, Compulsory
	case !fullHit:
		return false, Capacity
	default:
		return false, Conflict
	}
}

// evict moves a line out of its set: into the victim buffer when there
// is one, dropping the buffer's oldest entry beyond capacity, and to
// memory when dirty.
func (m *refModel) evict(la uint64) {
	e := victimEntry{lineAddr: la, dirty: m.dirty[la]}
	delete(m.dirty, la)
	if m.cfg.VictimLines > 0 {
		m.victim = append([]victimEntry{e}, m.victim...)
		if len(m.victim) <= m.cfg.VictimLines {
			return
		}
		e = m.victim[len(m.victim)-1]
		m.victim = m.victim[:len(m.victim)-1]
	}
	if e.dirty {
		m.writeBacks++
	}
}

// accessRef mirrors Cache.Access: a reference hits only if every line it
// spans hits, and a miss carries the class of its first missing line.
func (m *refModel) accessRef(r trace.Ref) (bool, MissClass) {
	hit, class := true, NotMiss
	for la := m.cfg.LineAddr(r.Addr); la <= m.cfg.LineAddr(r.LastByte()); la++ {
		if h, c := m.accessLine(la, r.Kind); !h && hit {
			hit, class = false, c
		}
	}
	return hit, class
}

// refGeometries are the configurations the simulator is checked against
// the reference model on.
var refGeometries = []Config{
	DefaultConfig(16, 4, 1),
	DefaultConfig(32, 4, 2),
	DefaultConfig(64, 8, 4),
	DefaultConfig(64, 8, 8),
	DefaultConfig(256, 16, 2),
	DefaultConfig(1024, 32, 8),
}

// victimConfigs are two victim-buffer configurations of line size l, one
// write-back and one write-through. The buffers are large next to the
// caches, so victim hits — and the dirty lines they carry back — are
// common even on short traces.
func victimConfigs(l int) []Config {
	wb := DefaultConfig(l*2, l, 1)
	wb.VictimLines = 8
	wt := DefaultConfig(l*4, l, 2)
	wt.VictimLines = 4
	wt.WriteBack = false
	return []Config{wb, wt}
}

// TestQuickLRUMatchesReferenceModel drives random traces, a seeded
// quarter of whose references are writes, through both the simulator and
// the naive model across a range of geometries, with and without a
// victim buffer (write-back and write-through), and demands identical
// per-access hit/miss outcomes and, at the end, identical memory traffic:
// lines fetched, write-backs and write-throughs.
func TestQuickLRUMatchesReferenceModel(t *testing.T) {
	cfgs := append(append([]Config(nil), refGeometries...), victimConfigs(8)...)
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nRefs := int(n%2000) + 1
		tr := trace.Random(rng, 0, 4096, nRefs)
		refs := tr.Refs()
		for i := range refs {
			if rng.Intn(4) == 0 {
				refs[i].Kind = trace.Write
			}
		}
		for _, cfg := range cfgs {
			c, err := New(cfg)
			if err != nil {
				return false
			}
			m := newRefModel(cfg)
			for i := 0; i < tr.Len(); i++ {
				r := tr.At(i)
				got := c.Access(r).Hit
				want, _ := m.accessRef(r)
				if got != want {
					t.Logf("cfg %v ref %d addr %#x: sim hit=%v model hit=%v", cfg, i, r.Addr, got, want)
					return false
				}
			}
			st := c.Stats()
			if st.LinesFetched != m.fetched || st.WriteBacks != m.writeBacks || st.WriteThroughs != m.writeThroughs {
				t.Logf("cfg %v: sim traffic (fetched %d, write-backs %d, write-throughs %d), model (%d, %d, %d)",
					cfg, st.LinesFetched, st.WriteBacks, st.WriteThroughs, m.fetched, m.writeBacks, m.writeThroughs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// classTrace mixes a hot working set that is revisited (capacity and
// conflict misses) with a long random walk over a large region (compulsory
// misses, and a line table that must grow many times). References are 1
// to 8 bytes wide; every fourth one is at least 2 bytes wide and starts
// just below a 32-byte boundary, so it straddles a line at every geometry.
func classTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		var addr uint64
		if rng.Intn(2) == 0 {
			addr = uint64(rng.Intn(512))
		} else {
			addr = 4096 + uint64(rng.Intn(1<<20))
		}
		size := uint8(1 + rng.Intn(8))
		if i%4 == 0 {
			size = uint8(2 + rng.Intn(7))
			addr = addr&^31 + 32 - uint64(1+rng.Intn(int(size)-1))
		}
		kind := trace.Read
		if rng.Intn(4) == 0 {
			kind = trace.Write
		}
		tr.Append(trace.Ref{Addr: addr, Kind: kind, Size: size})
	}
	return tr
}

// TestClassifyMatchesReferenceModel checks 3C classification against the
// naive model: the per-access miss class and the per-class totals, on
// traces that touch more than 10k distinct lines and straddle lines. A
// Reset cache must classify the same stream identically again.
func TestClassifyMatchesReferenceModel(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		tr := classTrace(rand.New(rand.NewSource(seed)), 40000)
		for _, cfg := range refGeometries {
			cfg.Classify = true
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				m := newRefModel(cfg)
				var want Stats
				for i, r := range tr.Refs() {
					got := c.Access(r)
					hit, class := m.accessRef(r)
					if got.Hit != hit || got.Class != class {
						t.Fatalf("seed %d %v pass %d ref %d %+v: sim (hit %v, %v), model (hit %v, %v)",
							seed, cfg, pass, i, r, got.Hit, got.Class, hit, class)
					}
					switch class {
					case Compulsory:
						want.CompulsoryMisses++
					case Capacity:
						want.CapacityMisses++
					case Conflict:
						want.ConflictMisses++
					}
				}
				if len(m.seen) < 10000 {
					t.Fatalf("%v: trace touches %d distinct lines, want at least 10000", cfg, len(m.seen))
				}
				st := c.Stats()
				if st.CompulsoryMisses != want.CompulsoryMisses || st.CapacityMisses != want.CapacityMisses ||
					st.ConflictMisses != want.ConflictMisses {
					t.Errorf("seed %d %v pass %d: sim 3C (%d, %d, %d), model (%d, %d, %d)", seed, cfg, pass,
						st.CompulsoryMisses, st.CapacityMisses, st.ConflictMisses,
						want.CompulsoryMisses, want.CapacityMisses, want.ConflictMisses)
				}
				if want.CapacityMisses == 0 || want.ConflictMisses == 0 && cfg.Assoc < cfg.NumLines() {
					t.Errorf("%v: trace exercises too few classes: %+v", cfg, want)
				}
				c.Reset()
			}
		}
	}
}

// TestQuickStatsInvariants checks the accounting identities that must hold
// for any trace and any configuration:
//
//	hits + misses == accesses
//	compulsory + capacity + conflict == misses
//	reads + writes + fetches == accesses
//	residentLines <= numLines
func TestQuickStatsInvariants(t *testing.T) {
	f := func(seed int64, sizeExp, lineExp, assocExp uint8) bool {
		size := 16 << (sizeExp % 7) // 16..1024
		line := 4 << (lineExp % 4)  // 4..32
		if line > size {
			line = size
		}
		maxAssoc := size / line
		assoc := 1 << (assocExp % 4) // 1..8
		if assoc > maxAssoc {
			assoc = maxAssoc
		}
		cfg := DefaultConfig(size, line, assoc)
		cfg.Classify = true
		rng := rand.New(rand.NewSource(seed))
		tr := trace.New(600)
		for i := 0; i < 600; i++ {
			k := trace.Read
			if rng.Intn(3) == 0 {
				k = trace.Write
			}
			tr.Append(trace.Ref{Addr: uint64(rng.Intn(8192)), Kind: k})
		}
		c, err := New(cfg)
		if err != nil {
			t.Logf("New(%v): %v", cfg, err)
			return false
		}
		st, err := c.Run(tr.Reader())
		if err != nil {
			return false
		}
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		if st.CompulsoryMisses+st.CapacityMisses+st.ConflictMisses != st.Misses {
			return false
		}
		if st.Reads+st.Writes+st.Fetches != st.Accesses {
			return false
		}
		if st.ReadHits+st.ReadMisses != st.Reads {
			return false
		}
		if st.WriteHits+st.WriteMisses != st.Writes {
			return false
		}
		if c.ResidentLines() > cfg.NumLines() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMonotoneAssociativity: for a fixed size and line size, increasing
// associativity with LRU never increases the miss count on any trace
// (inclusion property of LRU within equal capacity does not hold in general
// across set mappings, but conflict misses cannot increase when sets merge
// under LRU for power-of-two geometries driven by the same stream — we
// assert the weaker, always-true property that the fully associative cache
// has the minimum conflict-miss count: zero).
func TestQuickFullyAssociativeZeroConflicts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.Random(rng, 0, 2048, 800)
		cfg := DefaultConfig(128, 8, 16) // fully associative: 16 lines
		cfg.Classify = true
		st, err := RunTrace(cfg, tr)
		if err != nil {
			return false
		}
		return st.ConflictMisses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShadowLRU(t *testing.T) {
	s := newShadow3C(2)
	for i, step := range []struct {
		line      uint64
		seen, hit bool
	}{
		{1, false, false},
		{2, false, false},
		{1, true, true},
		{3, false, false}, // LRU of {1 (recent), 2} is 2: evicted by 3
		{2, true, false},  // seen before, no longer resident
		{1, true, false},  // evicted by 2's return
		{2, true, true},
	} {
		seen, level := s.touch(step.line)
		if hit := level == 0; seen != step.seen || hit != step.hit {
			t.Errorf("step %d touch(%d) = (seen %v, level %d), want (%v, hit %v)", i, step.line, seen, level, step.seen, step.hit)
		}
	}
	if s.resident != 2 {
		t.Errorf("resident = %d, want 2", s.resident)
	}
}

// oracleConfigs builds the configuration set of FuzzSweepMatchesReferenceModel
// from a shape seed: for each of three line sizes, five set counts, each
// with one to three associativities (so lone geometries are common) and a
// write-back or write-through policy per configuration, plus one
// no-write-allocate, two FIFO and two victim-buffer configurations per
// line size on the fallback path. About a quarter of the configurations
// classify their misses, which sends them to the fallback path too.
func oracleConfigs(shape int64) []Config {
	rng := rand.New(rand.NewSource(shape))
	var cfgs []Config
	for _, l := range []int{4, 8, 16} {
		for _, sets := range []int{1, 2, 4, 8, 32} {
			for _, a := range rng.Perm(4)[:1+rng.Intn(3)] {
				assoc := 1 << a
				cfg := DefaultConfig(l*sets*assoc, l, assoc)
				cfg.WriteBack = rng.Intn(2) == 0
				cfgs = append(cfgs, cfg)
			}
		}
		noAlloc := DefaultConfig(l*4*2, l, 2)
		noAlloc.WriteAllocate = false
		cfgs = append(cfgs, noAlloc)
		for _, assoc := range []int{2, 4} {
			fifo := DefaultConfig(l*2*assoc, l, assoc)
			fifo.Replacement = FIFO
			fifo.WriteBack = rng.Intn(2) == 0
			cfgs = append(cfgs, fifo)
		}
		cfgs = append(cfgs, victimConfigs(l)...)
	}
	for i := range cfgs {
		cfgs[i].Classify = rng.Intn(4) == 0
	}
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs
}

// oracleRefs decodes three bytes per reference, up to 2048 references:
// 40% writes, sizes up to 64 bytes (line-spanning at every line size),
// and addresses drawn from a 1 KiB hot region with an occasional far
// page, so lines are reused and evicted heavily.
func oracleRefs(data []byte) []trace.Ref {
	sizes := []uint8{0, 1, 2, 4, 8, 16, 64}
	data = data[:min(len(data), 3*2048)]
	refs := make([]trace.Ref, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		kind := trace.Read
		switch b0 % 10 {
		case 0, 1, 2, 3:
			kind = trace.Write
		case 4:
			kind = trace.Fetch
		}
		addr := uint64(b1)<<2 | uint64(b2&3)
		if b2&0x80 != 0 {
			addr += 4096 << (b2 >> 5 & 3)
		}
		refs = append(refs, trace.Ref{Addr: addr, Kind: kind, Size: sizes[int(b0/10)%len(sizes)]})
	}
	return refs
}

// FuzzSweepMatchesReferenceModel checks the sweep engine against the
// naive model, not against another engine: every configuration's hits,
// misses, compulsory, capacity and conflict misses, lines fetched,
// write-backs and write-throughs must equal those of one refModel — a
// classifying one for a configuration with Classify, whose misses an
// unclassified cache counts as capacity misses — for the whole sweep,
// for the sweep driven through Shards(n), n = 1..4, in ragged blocks, and
// for the sweep of the level-only configurations run as 1–4 time ranges
// cut at the points in cuts (Fork, ragged blocks, Absorb).
func FuzzSweepMatchesReferenceModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{30, 300, 1500} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed, int64(n), uint64(n)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, data []byte, shape int64, cuts uint64) {
		refs := oracleRefs(data)
		cfgs := oracleConfigs(shape)
		want := make([]Stats, len(cfgs))
		check := func(leg string, i int, got Stats) {
			t.Helper()
			w := want[i]
			if got.Hits != w.Hits || got.Misses != w.Misses || got.LinesFetched != w.LinesFetched ||
				got.WriteBacks != w.WriteBacks || got.WriteThroughs != w.WriteThroughs {
				t.Fatalf("%s %v: sweep (hits %d, misses %d, fetched %d, wb %d, wt %d), model (%d, %d, %d, %d, %d)",
					leg, cfgs[i], got.Hits, got.Misses, got.LinesFetched, got.WriteBacks, got.WriteThroughs,
					w.Hits, w.Misses, w.LinesFetched, w.WriteBacks, w.WriteThroughs)
			}
			if got.CompulsoryMisses != w.CompulsoryMisses || got.CapacityMisses != w.CapacityMisses ||
				got.ConflictMisses != w.ConflictMisses {
				t.Fatalf("%s %v classify=%v: sweep 3C (%d, %d, %d), model (%d, %d, %d)", leg, cfgs[i], cfgs[i].Classify,
					got.CompulsoryMisses, got.CapacityMisses, got.ConflictMisses,
					w.CompulsoryMisses, w.CapacityMisses, w.ConflictMisses)
			}
		}
		for i, cfg := range cfgs {
			m := newTrafficModel(cfg)
			if cfg.Classify {
				m = newRefModel(cfg)
			}
			for _, r := range refs {
				hit, class := m.accessRef(r)
				switch {
				case hit:
					want[i].Hits++
					continue
				case !cfg.Classify || class == Capacity:
					want[i].CapacityMisses++
				case class == Compulsory:
					want[i].CompulsoryMisses++
				default:
					want[i].ConflictMisses++
				}
				want[i].Misses++
			}
			want[i].LinesFetched, want[i].WriteBacks, want[i].WriteThroughs = m.fetched, m.writeBacks, m.writeThroughs
		}
		for n := 0; n <= 4; n++ {
			s, err := NewSweep(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			feed := []func([]trace.Ref){s.AccessBlock} // n = 0: the whole sweep
			if n > 0 {
				feed = feed[:0]
				for _, sh := range s.Shards(n) {
					feed = append(feed, sh.AccessBlock)
				}
			}
			for start := 0; start < len(refs); {
				end := min(start+1+int(shape&63)+start%7, len(refs))
				for _, access := range feed {
					access(refs[start:end])
				}
				start = end
			}
			for i, got := range s.Stats() {
				check(fmt.Sprintf("shards=%d", n), i, got)
			}
			s.Release()
		}

		// The ranges leg: 1–4 ranges of the level-only configurations,
		// cut where the fuzzer says (16 bits per cut point).
		var levelCfgs []Config
		var levelIdx []int
		for i, cfg := range cfgs {
			if InclusionEligible(cfg) {
				levelCfgs, levelIdx = append(levelCfgs, cfg), append(levelIdx, i)
			}
		}
		points := make([]int, cuts%4)
		for i := range points {
			points[i] = int(cuts>>(2+16*i)&0xffff) % (len(refs) + 1)
		}
		for j, got := range sweepRanges(t, levelCfgs, refs, points, 1+int(shape&63)) {
			check(fmt.Sprintf("ranges at %v", points), levelIdx[j], got)
		}
	})
}
