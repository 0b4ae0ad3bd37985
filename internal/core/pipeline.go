package core

// This file implements the parallel execution engines for sweeps:
//
//   - a decode producer goroutine fills []trace.Ref chunk slabs from the
//     extrace.Reader into a small bounded ring, so parsing (and gzip
//     inflation) overlaps simulation instead of stalling it; slabs are
//     recycled through a sync.Pool;
//   - a coordinator filters each chunk, drives the Gray-code bus counter
//     and hands the references to one of two executors:
//   - the range executor (stack sweeps): the stream is cut into epochs of
//     rangeEpochRefs references, dealt round-robin to the workers.
//     Epoch 0 runs on the sweep itself, every later epoch on the
//     worker's cachesim.Sweep.Fork, and the workers Absorb their epochs
//     in stream order (cachesim/ranges.go);
//   - the pass-unit fan-out (sweeps with fallback caches, where a time
//     split is unsound): each chunk is broadcast to shard workers that own
//     disjoint pass units, with a barrier per chunk.
//
// Both keep the statistics bit-identical to the sequential path in any
// worker count. The same executors drive in-memory kernel traces
// (runSweepTrace), whose epochs are slices of the trace.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// pipelineRingChunks bounds how many filled chunks may sit between the
// decode producer and the simulation coordinator: the producer runs at
// most this far ahead (triple buffering), which caps pipeline memory at
// a few chunk slabs while still absorbing decode jitter.
const pipelineRingChunks = 2

// chunkSlabPool recycles the pipeline's chunk slabs across sweeps.
var chunkSlabPool = sync.Pool{
	New: func() any {
		s := make([]trace.Ref, traceChunkRefs)
		return &s
	},
}

// PipelineObserver receives trace-pipeline events so callers (the
// memexplored service) can export gauges without the engine depending
// on a metrics system. Any callback may be nil. Callbacks run on the
// engine's goroutines and must be cheap and safe for concurrent use.
type PipelineObserver struct {
	// Workers reports the effective simulation worker count of a trace
	// sweep as it starts (1 for the sequential path).
	Workers func(n int)
	// ChunksInflight reports ring occupancy changes: +1 when the
	// producer fills a chunk, -1 when the coordinator retires it.
	ChunksInflight func(delta int)
	// ChunkStall reports how long the simulation coordinator waited for
	// the decode producer before each chunk — the pipeline's exposed
	// decode latency (zero when simulation is the bottleneck).
	ChunkStall func(d time.Duration)
}

var pipelineObs atomic.Pointer[PipelineObserver]

// SetPipelineObserver installs the process-wide pipeline observer (nil
// removes it). It is meant to be set once at service start-up.
func SetPipelineObserver(obs *PipelineObserver) { pipelineObs.Store(obs) }

func obsWorkers(n int) {
	if o := pipelineObs.Load(); o != nil && o.Workers != nil {
		o.Workers(n)
	}
}

func obsChunks(delta int) {
	if o := pipelineObs.Load(); o != nil && o.ChunksInflight != nil {
		o.ChunksInflight(delta)
	}
}

func obsStall(d time.Duration) {
	if o := pipelineObs.Load(); o != nil && o.ChunkStall != nil {
		o.ChunkStall(d)
	}
}

// effectiveWorkers resolves the Options.Workers knob: 0 (or negative)
// means GOMAXPROCS, 1 selects the exact sequential path.
func (o Options) effectiveWorkers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// rangeEpochRefs is the epoch length of the range executor, in
// (filtered) references; a stream chunk that straddles two epochs is
// split between them. Longer epochs amortize the stitch; shorter ones
// start the second worker sooner and keep the epoch buffers small.
const rangeEpochRefs = 16384

// epochSealed marks an epoch's published length as final.
const epochSealed = int64(1) << 62

// A pipeSink takes the coordinator's filtered chunks: the range
// executor or the pass-unit fan-out.
type pipeSink interface {
	// feed consumes refs, which stay valid only until feed returns, and
	// runs mid on the calling goroutine meanwhile.
	feed(refs []trace.Ref, mid func())
	// finish waits until the sweep holds every fed reference.
	finish()
	// stop abandons the stream and joins the workers; it is idempotent.
	stop()
}

// epoch is one time range of the stream on a range worker.
type epoch struct {
	// refs is the range: a slice of an in-memory trace, or the worker's
	// buffer that the coordinator fills while the worker simulates.
	refs []trace.Ref
	// state is the published length of refs, or'd with epochSealed once
	// the range is complete.
	state atomic.Int64
	wake  chan struct{} // capacity 1: a nudge after each publish
	// target is the sweep itself for epoch 0, the worker's fork after.
	target *cachesim.Sweep
	// prev is closed once the previous epoch is in the sweep, done once
	// this one is.
	prev <-chan struct{}
	done chan struct{}
}

// publish makes refs[:n] visible to the worker, sealed when final.
func (ep *epoch) publish(n int, final bool) {
	st := int64(n)
	if final {
		st |= epochSealed
	}
	ep.state.Store(st)
	select {
	case ep.wake <- struct{}{}:
	default:
	}
}

// rangeWorker is one goroutine of the range executor. Its fork and its
// epoch buffer are made when it first needs them.
type rangeWorker struct {
	jobs chan *epoch
	fork *cachesim.Sweep
	buf  []trace.Ref
}

// rangeExec runs a forkable sweep over consecutive epochs of a stream
// on several workers and stitches them in stream order.
type rangeExec struct {
	sweep   *cachesim.Sweep
	workers []*rangeWorker
	epochs  int
	open    *epoch        // the stream epoch being filled
	filled  int           // references copied into open
	last    chan struct{} // done of the latest epoch
	quit    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

func newRangeExec(sweep *cachesim.Sweep, workers int) *rangeExec {
	x := &rangeExec{sweep: sweep, workers: make([]*rangeWorker, workers), quit: make(chan struct{})}
	x.last = make(chan struct{})
	close(x.last) // nothing before epoch 0
	for i := range x.workers {
		w := &rangeWorker{jobs: make(chan *epoch)}
		x.workers[i] = w
		x.wg.Add(1)
		go x.work(w)
	}
	return x
}

// start deals the next epoch to its worker, waiting until the worker
// has stitched its previous one. refs nil asks for the worker's buffer.
func (x *rangeExec) start(refs []trace.Ref) *epoch {
	w := x.workers[x.epochs%len(x.workers)]
	ep := &epoch{refs: refs, wake: make(chan struct{}, 1), target: x.sweep, prev: x.last, done: make(chan struct{})}
	if x.epochs > 0 {
		if w.fork == nil {
			w.fork = x.sweep.Fork()
		}
		ep.target = w.fork
	}
	if refs == nil {
		if w.buf == nil {
			w.buf = make([]trace.Ref, rangeEpochRefs)
		}
		ep.refs = w.buf
	}
	x.epochs++
	x.last = ep.done
	w.jobs <- ep
	return ep
}

// feed copies a stream chunk into the open epoch and publishes it; an
// epoch closes once it holds rangeEpochRefs references, and the rest of
// the chunk opens the next.
func (x *rangeExec) feed(refs []trace.Ref, mid func()) {
	for len(refs) > 0 {
		if x.open == nil {
			x.open, x.filled = x.start(nil), 0
		}
		n := copy(x.open.refs[x.filled:], refs)
		refs, x.filled = refs[n:], x.filled+n
		sealed := x.filled == len(x.open.refs)
		x.open.publish(x.filled, sealed)
		if sealed {
			x.open = nil
		}
	}
	if mid != nil {
		mid()
	}
}

// feedSlice is feed for a slice of an in-memory trace, which stays
// valid for the whole sweep: the slice is a sealed epoch of its own,
// simulated in place.
func (x *rangeExec) feedSlice(refs []trace.Ref, mid func()) {
	x.start(refs).publish(len(refs), true)
	if mid != nil {
		mid()
	}
}

func (x *rangeExec) finish() {
	if x.open != nil {
		x.open.publish(x.filled, true)
		x.open = nil
	}
	<-x.last
	x.stop()
}

func (x *rangeExec) stop() {
	x.once.Do(func() {
		close(x.quit)
		for _, w := range x.workers {
			close(w.jobs)
		}
		x.wg.Wait()
	})
}

// work simulates each epoch dealt to the worker as it is published,
// then stitches it onto the sweep once the previous epoch is there.
func (x *rangeExec) work(w *rangeWorker) {
	defer x.wg.Done()
	for ep := range w.jobs {
		if !x.simulate(ep) {
			continue
		}
		select {
		case <-ep.prev:
		case <-x.quit:
			continue
		}
		if ep.target != x.sweep {
			x.sweep.Absorb(ep.target)
		}
		close(ep.done)
	}
}

// simulate feeds the epoch's published references to its target until
// the epoch is sealed and consumed; false means the stream was
// abandoned.
func (x *rangeExec) simulate(ep *epoch) bool {
	done := 0
	for {
		st := ep.state.Load()
		if n := int(st &^ epochSealed); n > done {
			ep.target.AccessBlock(ep.refs[done:n])
			done = n
			continue
		}
		if st&epochSealed != 0 {
			return true
		}
		select {
		case <-ep.wake:
		case <-x.quit:
			return false
		}
	}
}

// sweepFanout owns a set of worker goroutines, each consuming a
// disjoint shard of a fallback sweep's pass units. feed broadcasts one
// block to every worker and returns only when all of them have consumed
// it — the per-chunk barrier that keeps the sweep chunk-synchronous (and
// makes the block's backing slab reusable the moment feed returns).
type sweepFanout struct {
	chans []chan []trace.Ref
	ack   chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// newSweepFanout starts one goroutine per shard. Callers must stop() it
// before reading the sweep's statistics or releasing the sweep.
func newSweepFanout(shards []*cachesim.SweepShard) *sweepFanout {
	f := &sweepFanout{
		chans: make([]chan []trace.Ref, len(shards)),
		ack:   make(chan struct{}, len(shards)),
	}
	for i, sh := range shards {
		ch := make(chan []trace.Ref)
		f.chans[i] = ch
		f.wg.Add(1)
		go func(sh *cachesim.SweepShard, ch <-chan []trace.Ref) {
			defer f.wg.Done()
			for block := range ch {
				sh.AccessBlock(block)
				f.ack <- struct{}{}
			}
		}(sh, ch)
	}
	return f
}

// feed broadcasts block to every shard worker, runs mid (when non-nil)
// on the calling goroutine while the workers chew — the trace engine
// drives the Gray-code bus counter there — and returns after every
// worker has acknowledged the block.
func (f *sweepFanout) feed(block []trace.Ref, mid func()) {
	for _, ch := range f.chans {
		ch <- block
	}
	if mid != nil {
		mid()
	}
	for range f.chans {
		<-f.ack
	}
}

func (f *sweepFanout) finish() { f.stop() }

// stop shuts the workers down and joins them. It must not race a feed
// call.
func (f *sweepFanout) stop() {
	f.once.Do(func() {
		for _, ch := range f.chans {
			close(ch)
		}
		f.wg.Wait()
	})
}

// newPipeSink picks the parallel executor of a sweep — the range
// executor when the sweep forks, the pass-unit fan-out otherwise — and
// reports how many workers it runs.
func newPipeSink(sweep *cachesim.Sweep, workers int) (pipeSink, int) {
	if sweep.Forkable() {
		return newRangeExec(sweep, workers), workers
	}
	shards := sweep.Shards(workers)
	return newSweepFanout(shards), len(shards)
}

// runSweepTrace drives an in-memory trace through the sweep across up
// to workers goroutines: a forkable sweep splits the trace into epochs
// (slices, no copy; a trace of at most one epoch runs sequentially), a
// sweep with fallback caches fans CancelCheckInterval blocks out across
// pass-unit shards. observe, when non-nil, sees every reference on the calling
// goroutine, overlapped with the workers. Statistics are bit-identical
// to Sweep.RunTraceContext in any worker count.
func runSweepTrace(ctx context.Context, sweep *cachesim.Sweep, tr *trace.Trace, observe func(trace.Ref), workers int) ([]cachesim.Stats, error) {
	refs := tr.Refs()
	forkable, step := sweep.Forkable(), cachesim.CancelCheckInterval
	if forkable {
		step = rangeEpochRefs
	}
	if workers <= 1 || (forkable && len(refs) <= step) || (!forkable && sweep.PassUnits() < 2) {
		return sweep.RunTraceContext(ctx, tr, observe)
	}
	sink, _ := newPipeSink(sweep, workers)
	defer sink.stop()
	feed := sink.feed
	if x, ok := sink.(*rangeExec); ok {
		feed = x.feedSlice
	}
	for start := 0; start < len(refs); start += step {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		block := refs[start:min(start+step, len(refs))]
		var mid func()
		if observe != nil {
			mid = func() {
				for _, r := range block {
					observe(r)
				}
			}
		}
		feed(block, mid)
	}
	sink.finish()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sweep.Stats(), nil
}

// pipeChunk is one decoded chunk travelling from the producer to the
// coordinator. refs slices the recyclable slab; err is the reader's
// terminal state (io.EOF for a clean end) and may accompany refs.
type pipeChunk struct {
	slab *[]trace.Ref
	refs []trace.Ref
	err  error
}

// chunkProducer decodes the trace on its own goroutine, publishing
// filled chunks into a bounded ring. The final chunk carries the
// reader's terminal error (io.EOF on success); the channel closes once
// the producer exits, which also publishes every write it made to the
// extrace.Reader (ingest statistics) to the coordinator.
type chunkProducer struct {
	full chan pipeChunk
	done chan struct{} // closed by the coordinator to abandon the stream
	once sync.Once
	join chan struct{} // closed when the producer goroutine has exited
}

func startChunkProducer(rd *extrace.Reader) *chunkProducer {
	p := &chunkProducer{
		full: make(chan pipeChunk, pipelineRingChunks),
		done: make(chan struct{}),
		join: make(chan struct{}),
	}
	go func() {
		defer close(p.join)
		defer close(p.full)
		for {
			slab := chunkSlabPool.Get().(*[]trace.Ref)
			n, err := rd.Read((*slab)[:traceChunkRefs])
			if n == 0 && err == nil {
				// Defensive: a no-progress, no-error read; try again.
				chunkSlabPool.Put(slab)
				continue
			}
			if n > 0 {
				obsChunks(+1)
			}
			msg := pipeChunk{slab: slab, refs: (*slab)[:n], err: err}
			select {
			case p.full <- msg:
			case <-p.done:
				if n > 0 {
					obsChunks(-1)
				}
				chunkSlabPool.Put(slab)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return p
}

// stop abandons the stream and joins the producer goroutine, then
// drains any chunks still in the ring. After stop returns the producer
// no longer touches the extrace.Reader, so the caller may snapshot its
// statistics. The join can block while the producer sits in a blocking
// Read — the same exposure as the sequential engine, which also only
// notices cancellation between reads.
func (p *chunkProducer) stop() {
	p.once.Do(func() { close(p.done) })
	<-p.join
	for msg := range p.full {
		if len(msg.refs) > 0 {
			obsChunks(-1)
		}
		chunkSlabPool.Put(msg.slab)
	}
}

// runTracePipeline is the parallel engine behind ExploreTraceReader: the
// decode producer overlaps simulation, the filter and the bus counter
// ride the coordinator, and the sweep's executor (newPipeSink) keeps
// results bit-identical to the sequential path. It consumes the reader
// to its end (or to the first error / cancellation) and leaves the
// sweep ready for Stats.
func runTracePipeline(ctx context.Context, rd *extrace.Reader, sweep *cachesim.Sweep, drive func(uint64), workers int, filter *traceFilter) error {
	progress := progressFrom(ctx)
	sink, n := newPipeSink(sweep, workers)
	obsWorkers(n)
	defer sink.stop()
	prod := startChunkProducer(rd)
	defer prod.stop()

	for {
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
		wait := time.Now()
		msg, ok := <-prod.full
		if !ok {
			// Producer exited without a terminal chunk: only possible
			// after stop(), which we haven't called — treat as EOF.
			sink.finish()
			return nil
		}
		obsStall(time.Since(wait))
		if len(msg.refs) > 0 {
			// The filter runs here on the coordinator — chunks arrive in
			// stream order and the slab is exclusively ours until feed
			// returns — so thinning is deterministic at any worker count.
			refs := msg.refs
			if filter != nil {
				refs = filter.apply(refs)
			}
			if len(refs) > 0 {
				sink.feed(refs, func() {
					for _, r := range refs {
						drive(r.Addr)
					}
				})
			}
			obsChunks(-1)
			if progress != nil {
				progress(ProgressEvent{Records: int64(len(msg.refs)), Chunks: 1})
			}
		}
		chunkSlabPool.Put(msg.slab)
		if msg.err == io.EOF {
			sink.finish()
			return nil
		}
		if msg.err != nil {
			return fmt.Errorf("core: ingesting trace: %w", msg.err)
		}
	}
}
