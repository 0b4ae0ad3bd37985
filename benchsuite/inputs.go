package main

// Seeded inputs of the three workloads: the explore-http request deck,
// the trace family behind every trace body, and the two CLI artifacts.
// Every generator draws from rng(seed, stream, index), so one seed
// yields byte-identical request bodies and trace files on every run,
// and warm-up operations (stream "warmup") never coincide with
// measured ones.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"

	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/loopir"
	"memexplore/internal/trace"
)

// rng returns the generator of one named stream of the run seed; index
// separates the members of a stream (deck k, body i).
func rng(seed int64, stream string, index int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, index)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// opKind is what one scheduled operation does.
type opKind int

const (
	kindExplore   opKind = iota // sync POST /v1/explore
	kindRepeat                  // byte-identical repeat of an earlier explore op
	kindAggregate               // POST /v1/aggregate
	kindJob                     // POST /v1/jobs, awaited over the SSE event stream
	kindTrace                   // POST /v1/explore-trace with a family body
	kindCLI                     // memexplore -trace ART -sample-rate R -sample-seed K -json OUT
)

func (k opKind) String() string {
	return [...]string{"explore", "repeat", "aggregate", "job", "trace", "cli"}[k]
}

// op is one operation of a workload's schedule.
type op struct {
	id      int // position in the run's schedule
	kind    opKind
	body    []byte // JSON body of explore, aggregate and job ops
	target  *op    // kindRepeat: the op whose body is repeated
	records int64  // memory references the op accounts for
	check   bool   // in the oracle's seeded sample
	retain  bool   // keep the response: a later repeat compares against it

	// kindTrace: the body's wire format ("mxt" or "din"), and whether the
	// sweep is split across the replicas; the body is member id of the
	// trace family.
	format  string
	sharded bool
	// kindCLI: which artifact and the sampling seed of the invocation.
	artifact   int
	sampleSeed uint64
}

// class names the operation's kind and, for trace and CLI ops, its
// format or artifact, for per-class latency counters.
func (o *op) class() string {
	switch o.kind {
	case kindTrace:
		if o.sharded {
			return "trace-" + o.format + "-sharded"
		}
		return "trace-" + o.format
	case kindCLI:
		return "cli-" + artifactNames[o.artifact]
	}
	return o.kind.String()
}

// traceHeader is a trace op's options header: "shards": -1 asks the
// coordinator for one shard per replica.
func (o *op) traceHeader() string {
	if o.sharded {
		return `{"kind":"explore-trace","shards":-1}`
	}
	return `{"kind":"explore-trace"}`
}

// --- explore-http ------------------------------------------------------

// paperEm are the paper's three main-memory parts (nJ per access).
var paperEm = []float64{4.95, 2.31, 43.56}

// exploreRequest mirrors the service's ExploreRequest wire form; the
// options stay raw so the oracle overlays exactly the bytes the server
// decoded.
type exploreRequest struct {
	Kernel  string          `json:"kernel"`
	Options json.RawMessage `json:"options"`
}

type aggregateKernel struct {
	Kernel string `json:"kernel"`
	Trip   int64  `json:"trip"`
}

type aggregateRequest struct {
	Kernels []aggregateKernel `json:"kernels"`
	Options json.RawMessage   `json:"options"`
}

// exploreOptions renders a sweep's options overlay. The main-memory
// energy is one of the paper's parts nudged by a per-operation
// micro-offset (nudge millionths of a nJ), so every first-time body is
// distinct (a result-cache miss) while the simulated work stays that of
// the paper's sweep.
func exploreOptions(em float64, nudge int, optimize, tiling1 bool) json.RawMessage {
	type mainPart struct {
		EmNJ float64 `json:"em_nj"`
	}
	type energy struct {
		Main mainPart `json:"main"`
	}
	o := struct {
		Tilings        []int  `json:"tilings,omitempty"`
		OptimizeLayout bool   `json:"optimize_layout"`
		Energy         energy `json:"energy"`
	}{OptimizeLayout: optimize, Energy: energy{mainPart{em + float64(nudge)*1e-6}}}
	if tiling1 {
		o.Tilings = []int{1}
	}
	return mustJSON(o)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchsuite: marshaling %T: %v", v, err))
	}
	return b
}

// kernelRefs is the reference count of a registered kernel's untiled
// nest; tiling reorders references without changing their number.
func kernelRefs(name string) int64 {
	n, err := kernels.ByName(name)
	if err != nil {
		panic(err)
	}
	refs, err := n.References()
	if err != nil {
		panic(err)
	}
	return refs
}

// exploreDeck builds deck k of explore-http. A deck holds every
// (kernel, layout on/off, tilings default/[1]) combination once — an
// eighth of them submitted as jobs, the rest as sync explores — plus
// sc.aggregates leave-one-out MPEG aggregates and one repeat per four
// sync explores. The deck's structure (order, jobs, repeats) depends on
// k alone: with two clients the order decides which sweeps overlap, and
// a structure that moved with the seed would move the latencies with
// it. The seed draws every body's content — main-memory energies and
// trip counts — so each seed sends its own distinct requests. Runs
// measure whole decks, so every run sees the same operation mix.
func exploreDeck(seed int64, stream string, k int, sc scale, firstID int) []*op {
	order := rng(0, stream, k) // the deck structure
	r := rng(seed, stream, k)
	type spec struct {
		kernel            string
		optimize, tiling1 bool
		leaveOut          int // aggregates: the MPEG kernel left out
		op                *op
	}
	var specs []spec
	for _, name := range sc.kernels {
		for _, optimize := range []bool{false, true} {
			for _, tiling1 := range []bool{false, true} {
				specs = append(specs, spec{kernel: name, optimize: optimize, tiling1: tiling1,
					op: &op{kind: kindExplore, records: kernelRefs(name)}})
			}
		}
	}
	for _, i := range order.Perm(len(specs))[:len(specs)/8] {
		specs[i].op.kind = kindJob
	}
	mpeg := kernels.MPEGKernels()
	for a := 0; a < sc.aggregates; a++ {
		s := spec{leaveOut: a % len(mpeg), op: &op{kind: kindAggregate}}
		for j, mk := range mpeg {
			if j != s.leaveOut {
				s.op.records += kernelRefs(mk.Nest.Name)
			}
		}
		specs = append(specs, s)
	}
	order.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// Repeats follow the sync explore they repeat; the load generator waits
	// for that op's answer, so every repeat finds its result cached.
	var deck, placed []*op
	repeats := 0
	for _, s := range specs {
		if s.op.kind == kindExplore {
			repeats++
		}
	}
	repeats /= 4
	addRepeat := func() {
		t := placed[order.Intn(len(placed)-1)]
		t.retain = true
		deck = append(deck, &op{kind: kindRepeat, target: t, records: t.records})
		repeats--
	}
	for _, s := range specs {
		deck = append(deck, s.op)
		if s.op.kind == kindExplore {
			placed = append(placed, s.op)
		}
		if repeats > 0 && len(placed) > 1 && order.Intn(3) == 0 {
			addRepeat()
		}
	}
	for repeats > 0 {
		addRepeat()
	}

	for i, o := range deck {
		o.id = firstID + i
	}
	// Warm-up bodies nudge the energy down, measured ones up: both streams
	// number their ops from 0, and a warm-up answer left in the result
	// cache would otherwise answer the measured body of the same id,
	// kernel and energy draw.
	sign := 1
	if stream == "warmup" {
		sign = -1
	}
	for _, s := range specs {
		o := s.op
		em := paperEm[r.Intn(len(paperEm))]
		nudge := sign * (o.id + 1)
		if o.kind == kindAggregate {
			req := aggregateRequest{Options: exploreOptions(em, nudge, true, true)}
			for j, mk := range mpeg {
				if j != s.leaveOut {
					req.Kernels = append(req.Kernels, aggregateKernel{Kernel: mk.Nest.Name, Trip: mk.Trip + int64(r.Intn(100))})
				}
			}
			o.body = mustJSON(req)
			continue
		}
		o.body = mustJSON(exploreRequest{Kernel: s.kernel, Options: exploreOptions(em, nudge, s.optimize, s.tiling1)})
	}
	for _, o := range deck {
		if o.kind == kindRepeat {
			o.body = o.target.body
		}
	}
	return deck
}

// --- the trace family --------------------------------------------------

// segRecords is the length of every non-Compress family segment.
const segRecords = 4096

// compressRefs is the untiled Compress kernel's reference stream
// (sequential layout), generated once.
var compressRefs = sync.OnceValue(func() []trace.Ref {
	tiled, err := loopir.TileAll(kernels.Compress(), 1)
	if err != nil {
		panic(err)
	}
	tr, err := tiled.Generate(loopir.SequentialLayout(tiled, 0))
	if err != nil {
		panic(err)
	}
	return tr.Refs()
})

// compressSegment is the Compress kernel's reference stream shifted to
// a seed-derived MiB offset.
func compressSegment(r *rand.Rand) []trace.Ref {
	off := uint64(r.Intn(256)) << 20
	refs := append([]trace.Ref(nil), compressRefs()...)
	for i := range refs {
		refs[i].Addr += off
	}
	return refs
}

// pollSegment is a device-polling idle loop: n word reads rescanning one
// 256-byte status buffer, the few-granule busy-wait firmware spends much
// of its time in.
func pollSegment(r *rand.Rand, n int) []trace.Ref {
	base := uint64(r.Intn(256))<<20 + 768<<10
	refs := make([]trace.Ref, n)
	for j := range refs {
		refs[j] = trace.Ref{Addr: base + uint64(j%32)*8, Kind: trace.Read}
	}
	return refs
}

// randomSegment is trace.Random over a 4 MiB span at a seeded base.
func randomSegment(r *rand.Rand, n int) []trace.Ref {
	return trace.Random(r, uint64(256+r.Intn(256))<<20, 4<<20, n).Refs()
}

// loopPingPongSegment is trace.Interleave(Loop, PingPong): a 1–4 KiB
// working set walked word by word, interleaved with two addresses a
// seeded multiple of 4 KiB apart.
func loopPingPongSegment(r *rand.Rand, n int) []trace.Ref {
	base := uint64(512+r.Intn(256)) << 20
	region := uint64(1024) << r.Intn(3)
	passes := (n / 2) / int(region/4)
	ping := base + 8<<20
	pong := ping + uint64(1+r.Intn(16))*4096
	return trace.Interleave(trace.Loop(base, region, 4, passes), trace.PingPong(ping, pong, n/4)).Refs()
}

// segments is a trace.Source over lazily generated segments, cut at a
// fixed record count, so large traces stream to their encoders without
// being materialized.
type segments struct {
	gen  func() []trace.Ref
	buf  []trace.Ref
	left int
}

func (s *segments) Next() (trace.Ref, error) {
	if s.left == 0 {
		return trace.Ref{}, io.EOF
	}
	for len(s.buf) == 0 {
		s.buf = s.gen()
	}
	ref := s.buf[0]
	s.buf = s.buf[1:]
	s.left--
	return ref, nil
}

// familySource is member i of the trace family: n records of the four
// family shapes in rotation — a Compress segment at a seed-derived
// offset, an idle-polling loop, trace.Random over 4 MiB and
// trace.Interleave(Loop, PingPong). The rotation and the fixed segment
// lengths give every member the same shape mix, and so about the same
// sweep cost; the seeded offsets and contents make every member
// distinct, so no cache can answer for another.
func familySource(seed int64, stream string, member, n int) trace.Source {
	r := rng(seed, stream, member)
	shape := 0
	return &segments{left: n, gen: func() []trace.Ref {
		defer func() { shape = (shape + 1) % 4 }()
		switch shape {
		case 0:
			return compressSegment(r)
		case 1:
			return pollSegment(r, segRecords)
		case 2:
			return randomSegment(r, segRecords)
		default:
			return loopPingPongSegment(r, segRecords)
		}
	}}
}

// encodeTrace writes src in the named wire format: "mxt" is mxt v2 with
// its MXTI01 index, "din" the textual format.
func encodeTrace(w io.Writer, src trace.Source, format string) error {
	var err error
	if format == "din" {
		_, err = extrace.WriteDin(w, src)
	} else {
		_, err = extrace.WriteBinaryV2(w, src)
	}
	return err
}

// traceBody renders one trace op's request body.
func traceBody(seed int64, stream string, o *op, records int) []byte {
	var buf bytes.Buffer
	if err := encodeTrace(&buf, familySource(seed, stream, o.id, records), o.format); err != nil {
		panic(err) // encoding into memory cannot fail
	}
	return buf.Bytes()
}

// traceSweeps are the sweeps of one trace-exact-http deck: an mxt v2 and
// a din body swept in process, and an mxt v2 body split across the
// replicas.
var traceSweeps = []struct {
	format  string
	sharded bool
}{{"mxt", false}, {"din", false}, {"mxt", true}}

// traceDeck builds deck k of trace-exact-http: each of traceSweeps once,
// in seeded order.
func traceDeck(seed int64, stream string, k int, records int, firstID int) []*op {
	r := rng(seed, stream+"-order", k)
	deck := make([]*op, len(traceSweeps))
	for i, p := range r.Perm(len(traceSweeps)) {
		s := traceSweeps[p]
		deck[i] = &op{id: firstID + i, kind: kindTrace, format: s.format, sharded: s.sharded, records: int64(records)}
	}
	return deck
}

// --- trace-sampled-cli artifacts ---------------------------------------

// artifactNames are the two CLI artifacts: idle-heavy firmware whose
// polling phases the MXTI01 index lets a sampled sweep skip, and a
// compute-dense Compress+Random stream the index cannot skip.
var artifactNames = [2]string{"idle", "dense"}

// artifactSource generates one artifact's source trace.
func artifactSource(seed int64, which, n int) trace.Source {
	r := rng(seed, "artifact-"+artifactNames[which], 0)
	compute := true
	return &segments{left: n, gen: func() []trace.Ref {
		defer func() { compute = !compute }()
		switch {
		case compute:
			return compressSegment(r)
		case which == 0:
			// A seeded duty cycle: each compute burst is followed by a
			// polling phase 3.4 to 6.8 times its length.
			return pollSegment(r, 16384+r.Intn(16384))
		default:
			return randomSegment(r, segRecords)
		}
	}}
}

// cliDeck builds deck k of trace-sampled-cli: one sampled sweep of each
// artifact in seeded order, each with its own sampling seed.
func cliDeck(seed int64, stream string, k int, records [2]int, firstID int) []*op {
	r := rng(seed, stream, k)
	deck := make([]*op, 2)
	for i, a := range r.Perm(2) {
		deck[i] = &op{id: firstID + i, kind: kindCLI, artifact: a, sampleSeed: r.Uint64() >> 1, records: int64(records[a])}
	}
	return deck
}
