package core

// This file is the one loop that drives a trace through a
// cachesim.Sweep — a kernel's in-memory trace and an external trace
// streamed through an extrace.Reader alike — and the executors it
// feeds. The loop (pass.run) takes the next chunk, checks the context,
// applies the sampling filter, drives the Gray-code bus counter and
// reports progress, all on the calling goroutine, and hands the chunk
// to one of three sinks:
//
//   - the sweep itself (Sweep.AccessBlock on the calling goroutine), at
//     one worker or when the sweep cannot split;
//   - the range executor (stack sweeps): the stream is cut into epochs of
//     rangeEpochRefs references, dealt round-robin to the workers.
//     Epoch 0 runs on the sweep itself, every later epoch on the
//     worker's cachesim.Sweep.Fork, and the workers Absorb their epochs
//     in stream order (cachesim/ranges.go). An in-memory trace is dealt
//     in place, one slice per epoch; a stream is copied into the
//     workers' epoch buffers, so the next read overlaps simulation;
//   - the pass-unit fan-out (sweeps with fallback caches, where a time
//     split is unsound): each chunk is broadcast to shard workers that own
//     disjoint pass units, with a barrier per chunk.
//
// Every sink keeps the statistics bit-identical to the sweep's own
// sequential pass in any worker count, and a pass starts no goroutine
// besides its executor's workers.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/extrace"
	"memexplore/internal/trace"
)

// chunkBufPool recycles the read buffers of stream passes. A read is
// one CancelCheckInterval long, the kernel pass's chunk, so both check
// the context equally often.
var chunkBufPool = sync.Pool{
	New: func() any {
		s := make([]trace.Ref, cachesim.CancelCheckInterval)
		return &s
	},
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

// A pass is one trace pass through a sweep: over the in-memory trace
// mem or, when rd is set, over the stream rd reads.
type pass struct {
	sweep   *cachesim.Sweep
	ctr     *bus.SwitchCounter // sees every simulated reference
	workers int
	mem     []trace.Ref
	rd      *extrace.Reader
	// filter thins a stream (nil: exact). It compacts each chunk in
	// place, so it never runs over an in-memory trace.
	filter *traceFilter
}

// run drives the pass to the end of the trace, or to the first read
// error or cancellation (an error wrapping ErrCanceled), and leaves the
// sweep ready for Stats. The context is checked before every chunk. A
// stream reports one progress event per chunk read, counting the
// records read rather than the (thinned) records simulated, so
// percent-done tracks the stream.
func (p pass) run(ctx context.Context) error {
	sink, step := p.sink()
	defer sink.stop()
	var next func() ([]trace.Ref, error)
	var progress ProgressFunc
	if p.rd == nil {
		mem := p.mem
		next = func() ([]trace.Ref, error) {
			if len(mem) == 0 {
				return nil, io.EOF
			}
			chunk := mem[:min(step, len(mem))]
			mem = mem[len(chunk):]
			return chunk, nil
		}
	} else {
		// No sink reads the buffer once feed returns: the range
		// executor copies it, the fan-out acknowledges it.
		buf := chunkBufPool.Get().(*[]trace.Ref)
		defer chunkBufPool.Put(buf)
		next = func() ([]trace.Ref, error) {
			n, err := p.rd.Read(*buf)
			return (*buf)[:n], err
		}
		progress = progressFrom(ctx)
	}
	var chunk []trace.Ref
	drive := func() {
		for _, r := range chunk {
			p.ctr.Drive(r.Addr)
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
		var err error
		chunk, err = next()
		if read := len(chunk); read > 0 {
			if p.filter != nil {
				chunk = p.filter.apply(chunk)
			}
			if len(chunk) > 0 {
				sink.feed(chunk, drive)
			}
			if progress != nil {
				progress(ProgressEvent{Records: int64(read), Chunks: 1})
			}
		}
		if err == io.EOF {
			sink.finish()
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: ingesting trace: %w", err)
		}
	}
}

// sink picks the pass's sink and the length of its in-memory chunks:
// the range executor for a forkable sweep, the pass-unit fan-out for a
// sweep of several pass units, and the sweep itself at one worker,
// for a sweep that cannot split, and for an in-memory trace of at most
// one epoch.
func (p pass) sink() (passSink, int) {
	step := cachesim.CancelCheckInterval
	switch {
	case p.workers <= 1:
	case p.sweep.Forkable():
		if p.rd != nil {
			return newRangeExec(p.sweep, p.workers, false), step
		}
		if len(p.mem) > rangeEpochRefs {
			return newRangeExec(p.sweep, p.workers, true), rangeEpochRefs
		}
	case p.sweep.PassUnits() > 1:
		return newSweepFanout(p.sweep.Shards(p.workers)), step
	}
	return sweepSink{p.sweep}, step
}

// A passSink takes the coordinator's filtered chunks.
type passSink interface {
	// feed consumes refs, which stay valid only until feed returns, and
	// runs mid on the calling goroutine meanwhile.
	feed(refs []trace.Ref, mid func())
	// finish waits until the sweep holds every fed reference.
	finish()
	// stop abandons the pass and joins the workers; it is idempotent.
	stop()
}

// sweepSink feeds the sweep on the calling goroutine.
type sweepSink struct{ sweep *cachesim.Sweep }

func (s sweepSink) feed(refs []trace.Ref, mid func()) {
	mid()
	s.sweep.AccessBlock(refs)
}

func (sweepSink) finish() {}

func (sweepSink) stop() {}

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
	// inPlace deals each fed slice as an epoch of its own: the slices of
	// an in-memory trace stay valid for the whole pass.
	inPlace bool
	epochs  int
	open    *epoch        // the stream epoch being filled
	filled  int           // references copied into open
	last    chan struct{} // done of the latest epoch
	quit    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

func newRangeExec(sweep *cachesim.Sweep, workers int, inPlace bool) *rangeExec {
	x := &rangeExec{sweep: sweep, workers: make([]*rangeWorker, workers), inPlace: inPlace, quit: make(chan struct{})}
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

// feed deals refs to the workers: in place as a sealed epoch of their
// own, or copied into the open epoch, which closes once it holds
// rangeEpochRefs references, the rest of refs opening the next.
func (x *rangeExec) feed(refs []trace.Ref, mid func()) {
	if x.inPlace {
		x.start(refs).publish(len(refs), true)
		refs = nil
	}
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
	mid()
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
// makes the block's backing buffer reusable the moment feed returns).
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

// feed broadcasts block to every shard worker, runs mid on the calling
// goroutine while the workers chew — the pass drives the Gray-code bus
// counter there — and returns after every worker has acknowledged the
// block.
func (f *sweepFanout) feed(block []trace.Ref, mid func()) {
	for _, ch := range f.chans {
		ch <- block
	}
	mid()
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
