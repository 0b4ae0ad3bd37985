package main

// The traced run (-trace 1): the workload's seeded operations replayed
// in process, with a span around every call into a layer's public
// functions. Each operation gets a root span; under it the core call
// that answers it (core.op) and, separately, the layers that call is
// made of — loopir generation and layout for kernels, extrace decode for
// traces, the Gray-code bus counter, the cachesim sweep, energy and
// cycle scoring — plus the service handler and encoder for the same
// request. Every workload times every layer: where a layer is off the
// workload's path (extrace on explore-http, loopir and layout on the
// trace workloads) it runs on the workload's own references — the
// kernel traces recorded as din and mxt v2, or the Compress kernel
// behind the trace family — so the metric exists and the prediction
// for that workload is no end-to-end change. The spans go to one JSON
// file; their numbers are never end-to-end metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"memexplore/internal/bus"
	"memexplore/internal/cachesim"
	"memexplore/internal/core"
	"memexplore/internal/cycles"
	"memexplore/internal/energy"
	"memexplore/internal/extrace"
	"memexplore/internal/kernels"
	"memexplore/internal/layout"
	"memexplore/internal/loopir"
	"memexplore/internal/service"
	"memexplore/internal/trace"
)

// span is one call into a layer.
type span struct {
	Workload string           `json:"workload"`
	Op       int              `json:"op"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // 0 for an operation's root span
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps a run's spans in memory.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func (t *tracer) open(op, parent int, name string) int {
	t.spans = append(t.spans, span{Workload: t.workload, Op: op, ID: len(t.spans) + 1, Parent: parent,
		Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) close(id int, counts map[string]int64) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
	return s.dur()
}

// call times fn as one span under parent and returns its duration.
func (t *tracer) call(op, parent int, name string, fn func() (map[string]int64, error)) (time.Duration, error) {
	id := t.open(op, parent, name)
	counts, err := fn()
	d := t.close(id, counts)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// selfTimes is each span name's total duration minus the time its
// children cover, for the printed per-layer table.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self
}

// layerMetric is one per-layer metric: a ratio of span sums.
type layerMetric struct {
	name, unit string
	value      func(t *tracer) float64
}

// sumOf totals the duration (key "") or a count of the spans of a name.
func (t *tracer) sumOf(name, key string) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		switch key {
		case "":
			total += float64(s.dur())
		case "calls":
			total++
		default:
			total += float64(s.Counts[key])
		}
	}
	return total
}

func ratio(name, num, den string, scale float64) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.sumOf(name, num) / t.sumOf(name, den) * scale }
}

// perLayer are the traced run's metrics, in README order.
var perLayer = []layerMetric{
	{"loopir.generate_ns_per_ref", "ns/ref", ratio("loopir.generate", "", "refs", 1)},
	{"layout.optimize_us", "us", ratio("layout.optimize", "", "calls", 1e-3)},
	{"extrace.decode_ns_per_record", "ns/record", ratio("extrace.decode", "", "records", 1)},
	{"extrace.convert_ns_per_record", "ns/record", ratio("extrace.convert", "", "records", 1)},
	{"extrace.wire_bytes_per_record", "B/record", ratio("extrace.decode", "bytes", "records", 1)},
	{"bus.ns_per_ref", "ns/ref", ratio("bus.switch", "", "refs", 1)},
	{"cachesim.ns_per_ref_unit", "ns", ratio("cachesim.sweep", "", "units", 1)},
	{"energy.ns_per_point", "ns/point", ratio("energy.score", "", "points", 1)},
	{"cycles.ns_per_point", "ns/point", ratio("cycles.score", "", "points", 1)},
	{"core.op_ms", "ms", ratio("core.op", "", "calls", 1e-6)},
	{"core.residual_frac", "fraction", func(t *tracer) float64 {
		return 1 - t.sumOf("op", "covered_ns")/t.sumOf("op", "core_ns")
	}},
	{"core.sampled_records_frac", "fraction", ratio("core.op", "sampled", "records", 1)},
	{"core.configs_per_pass", "count", ratio("core.op", "points", "pass_units", 1)},
	{"core.workloads_per_sweep", "count", ratio("core.op", "workloads", "calls", 1)},
	{"core.shard_critical_path_frac", "fraction", ratio("op", "shard_max_ns", "unsharded_ns", 1)},
	{"core.merge_us", "us", ratio("core.merge", "", "calls", 1e-3)},
	{"service.handler_ms", "ms", ratio("service.handler", "", "calls", 1e-6)},
	{"service.encode_ms", "ms", ratio("service.encode", "", "calls", 1e-6)},
	{"service.response_bytes", "B", ratio("service.encode", "bytes", "calls", 1)},
}

// layerRecord runs a workload's traced replay, writes its spans and
// fills the record with the per-layer metrics.
func layerRecord(ctx context.Context, w workload, r *runEnv, rec *record) error {
	tr := &tracer{workload: w.name, t0: time.Now()}
	if err := w.replay(ctx, r, tr); err != nil {
		return err
	}
	rec.Attempted = int(tr.sumOf("op", "calls"))
	rec.Correct = rec.Attempted > 0
	rec.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		rec.Metrics[m.name] = metric{Value: m.value(tr), Unit: m.unit, Samples: rec.Attempted}
	}
	rec.Counters = make(map[string]float64)
	for name, d := range tr.selfTimes() {
		rec.Counters["self_ms."+name] = ms(d)
	}
	path := filepath.Join(r.root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.json", w.name, r.seed))
	if err := os.WriteFile(path, mustJSON(tr.spans), 0o644); err != nil {
		return err
	}
	rec.Spans = path
	return nil
}

// replayer holds what every operation's replay shares.
type replayer struct {
	tr  *tracer
	svc *service.Server
	ctx context.Context
	geo int // rotates the off-path layout geometry
}

func newReplayer(ctx context.Context, tr *tracer) *replayer {
	// Cache off: the handler must do the work the core call does. One
	// worker: comparable with the sequential core call. A large body
	// limit: CLI artifacts go through the handler whole.
	svc := service.MustNew(service.Config{CacheEntries: -1, SweepWorkers: 1, MaxBodyBytes: 1 << 30})
	return &replayer{tr: tr, svc: svc, ctx: ctx}
}

// untilDone replays ops from successive decks until the window has
// passed (at least one op).
func untilDone(r *runEnv, deck func(k, firstID int) []*op, replay func(*op) error) error {
	begin := time.Now()
	next := 0
	for k := 0; ; k++ {
		ops := deck(k, next)
		next += len(ops)
		for _, o := range ops {
			if o.kind == kindRepeat {
				continue // answered from the result cache; nothing to replay
			}
			if err := replay(o); err != nil {
				return fmt.Errorf("op %d (%s): %w", o.id, o.kind, err)
			}
			if time.Since(begin) >= r.window {
				return nil
			}
		}
	}
}

func replayExplore(ctx context.Context, r *runEnv, tr *tracer) error {
	rp := newReplayer(ctx, tr)
	return untilDone(r, func(k, id int) []*op { return exploreDeck(r.seed, "explore", k, r.sc, id) }, rp.kernelOp)
}

func replayTrace(ctx context.Context, r *runEnv, tr *tracer) error {
	rp := newReplayer(ctx, tr)
	return untilDone(r, func(k, id int) []*op { return traceDeck(r.seed, "trace", k, r.sc.traceRecords, id) },
		func(o *op) error {
			body := traceBody(r.seed, "trace", o, r.sc.traceRecords)
			// Not seekable, like the HTTP body the server reads.
			open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
			return rp.traceOp(o, open, body, core.DefaultOptions(), o.traceHeader())
		})
}

func replaySampled(ctx context.Context, r *runEnv, tr *tracer) error {
	rp := newReplayer(ctx, tr)
	srcs, arts, err := writeArtifactSources(r)
	if err != nil {
		return err
	}
	for a := range arts {
		if err := rp.convertArtifact(a, srcs[a], arts[a]); err != nil {
			return err
		}
	}
	return untilDone(r, func(k, id int) []*op { return cliDeck(r.seed, "cli", k, r.sc.artifactRecords, id) },
		func(o *op) error {
			body, err := os.ReadFile(arts[o.artifact])
			if err != nil {
				return err
			}
			open := func() (io.ReadCloser, error) { return os.Open(arts[o.artifact]) }
			opts := core.DefaultOptions()
			opts.SampleRate, opts.SampleSeed = sampleRate, o.sampleSeed
			header := string(mustJSON(map[string]any{"options": map[string]any{"sample_rate": sampleRate, "sample_seed": o.sampleSeed}}))
			return rp.traceOp(o, open, body, opts, header)
		})
}

// convertArtifact transcodes a CLI artifact's din source in process —
// the work behind trace-sampled-cli's setup_s — as an extrace.convert
// span under a "setup" root.
func (rp *replayer) convertArtifact(a int, src, art string) error {
	root := rp.tr.open(-1-a, 0, "setup")
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(art)
	if err != nil {
		return err
	}
	_, err = rp.tr.call(-1-a, root, "extrace.convert", func() (map[string]int64, error) {
		n, _, err := extrace.TranscodeV2(out, in, extrace.Options{})
		return map[string]int64{"records": n}, err
	})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	rp.tr.close(root, nil)
	return err
}

// kernelOp replays one explore, job or aggregate operation.
func (rp *replayer) kernelOp(o *op) error {
	root := rp.tr.open(o.id, 0, "op")
	counts := map[string]int64{}
	defer func() { rp.tr.close(root, counts) }()

	path := "/v1/explore"
	var nests []*loopir.Nest
	var ws []core.WeightedKernel
	var raw json.RawMessage
	if o.kind == kindAggregate {
		path = "/v1/aggregate"
		var req aggregateRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return err
		}
		raw = req.Options
		for _, k := range req.Kernels {
			n, err := kernels.ByName(k.Kernel)
			if err != nil {
				return err
			}
			nests = append(nests, n)
			ws = append(ws, core.WeightedKernel{Nest: n, Trip: k.Trip})
		}
	} else {
		var req exploreRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return err
		}
		raw = req.Options
		n, err := kernels.ByName(req.Kernel)
		if err != nil {
			return err
		}
		nests = []*loopir.Nest{n}
	}
	opts, err := overlayOptions(raw)
	if err != nil {
		return err
	}

	var ms []core.Metrics
	plan := opts.Plan()
	coreDur, err := rp.tr.call(o.id, root, "core.op", func() (map[string]int64, error) {
		var err error
		if ws != nil {
			ms, _, err = core.AggregateContext(rp.ctx, ws, opts)
		} else {
			ms, err = core.ExploreContext(rp.ctx, nests[0], opts)
		}
		return map[string]int64{"points": int64(plan.Points * len(nests)), "pass_units": int64(plan.PassUnits() * len(nests)),
			"workloads": int64(plan.Workloads * len(nests)), "records": o.records, "sampled": o.records}, err
	})
	if err != nil {
		return err
	}
	var covered time.Duration
	var first []trace.Ref
	for _, n := range nests {
		d, refs, err := rp.kernelLayers(o.id, root, n, opts)
		if err != nil {
			return err
		}
		covered += d
		if first == nil {
			first = refs
		}
	}
	counts["core_ns"], counts["covered_ns"] = int64(coreDur), int64(covered)

	// Off the path: the same references recorded as a trace.
	if err := rp.recordedTraceLayers(o.id, root, first, counts); err != nil {
		return err
	}
	if err := rp.handler(o.id, root, path, "", o.body); err != nil {
		return err
	}
	var resp any = service.ExploreResponse{Points: len(ms), Metrics: ms}
	if ws != nil {
		resp = service.AggregateResponse{Points: len(ms), Program: ms}
	}
	return rp.encode(o.id, root, resp)
}

// workloadKey mirrors the core's grouping of sweep points by the trace
// they share: sequential layouts share one trace per tiling; optimized
// layouts also key on the (L, T/L) geometry the assignment targets.
type workloadKey struct{ tiling, line, sets int }

// kernelLayers replays one kernel sweep's layers: per workload trace,
// tiling and generation (loopir), the §4.1 assignment (layout), the bus
// counter, the cachesim sweep over the group's configurations, then
// energy and cycle scoring of every point. It returns the time the spans
// cover and the first workload's references.
func (rp *replayer) kernelLayers(opID, parent int, n *loopir.Nest, opts core.Options) (time.Duration, []trace.Ref, error) {
	points := opts.Space()
	var order []workloadKey
	groups := make(map[workloadKey][]core.ConfigPoint)
	for _, p := range points {
		k := workloadKey{tiling: p.Tiling}
		if opts.OptimizeLayout {
			k.line, k.sets = p.LineSize, p.CacheSize/p.LineSize
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	var covered time.Duration
	var first []trace.Ref
	tiled := make(map[int]*loopir.Nest)
	for _, k := range order {
		tn, err := rp.tile(opID, parent, n, k.tiling, tiled, &covered)
		if err != nil {
			return 0, nil, err
		}
		lay := loopir.SequentialLayout(tn, 0)
		if opts.OptimizeLayout {
			d, err := rp.tr.call(opID, parent, "layout.optimize", func() (map[string]int64, error) {
				plan, err := layout.Optimize(tn, k.line, k.sets)
				if err == nil {
					lay = plan.Layout
				}
				return nil, err
			})
			covered += d
			if err != nil {
				return 0, nil, err
			}
		}
		var refs []trace.Ref
		d, err := rp.tr.call(opID, parent, "loopir.generate", func() (map[string]int64, error) {
			t, err := tn.Generate(lay)
			if err != nil {
				return nil, err
			}
			refs = t.Refs()
			return map[string]int64{"refs": int64(len(refs))}, nil
		})
		covered += d
		if err != nil {
			return 0, nil, err
		}
		if first == nil {
			first = refs
		}
		cfgs := make([]cachesim.Config, len(groups[k]))
		for i, p := range groups[k] {
			cfgs[i] = cachesim.DefaultConfig(p.CacheSize, p.LineSize, p.Assoc)
		}
		d, err = rp.simulate(opID, parent, refs, cfgs, groups[k], opts.Energy)
		covered += d
		if err != nil {
			return 0, nil, err
		}
	}
	return covered, first, nil
}

// tile returns the tiled nest for tiling b, timing TileAll as part of
// loopir.generate the first time it is needed.
func (rp *replayer) tile(opID, parent int, n *loopir.Nest, b int, tiled map[int]*loopir.Nest, covered *time.Duration) (*loopir.Nest, error) {
	if tn, ok := tiled[b]; ok {
		return tn, nil
	}
	var tn *loopir.Nest
	d, err := rp.tr.call(opID, parent, "loopir.generate", func() (map[string]int64, error) {
		var err error
		tn, err = loopir.TileAll(n, b)
		return nil, err
	})
	*covered += d
	tiled[b] = tn
	return tn, err
}

// simulate drives refs through the bus counter and one cachesim sweep
// over cfgs, then scores every point (energy, then cycles).
func (rp *replayer) simulate(opID, parent int, refs []trace.Ref, cfgs []cachesim.Config, points []core.ConfigPoint, ep energy.Params) (time.Duration, error) {
	var addBS float64
	dBus, _ := rp.tr.call(opID, parent, "bus.switch", func() (map[string]int64, error) {
		ctr := bus.NewSwitchCounter(bus.Gray)
		for _, r := range refs {
			ctr.Drive(r.Addr)
		}
		addBS = ctr.PerDrive()
		return map[string]int64{"refs": int64(len(refs))}, nil
	})
	var stats []cachesim.Stats
	dSim, err := rp.tr.call(opID, parent, "cachesim.sweep", func() (map[string]int64, error) {
		sw, err := cachesim.NewSweep(cfgs)
		if err != nil {
			return nil, err
		}
		defer sw.Release()
		for i := 0; i < len(refs); i += cachesim.CancelCheckInterval {
			sw.AccessBlock(refs[i:min(i+cachesim.CancelCheckInterval, len(refs))])
		}
		stats = sw.Stats()
		return map[string]int64{"refs": int64(len(refs)), "units": int64(len(refs) * sw.PassUnits())}, nil
	})
	if err != nil {
		return 0, err
	}
	dEnergy, err := rp.tr.call(opID, parent, "energy.score", func() (map[string]int64, error) {
		for _, c := range cfgs {
			if _, err := energy.PerAccess(ep, c, addBS); err != nil {
				return nil, err
			}
		}
		return map[string]int64{"points": int64(len(cfgs))}, nil
	})
	if err != nil {
		return 0, err
	}
	dCycles, err := rp.tr.call(opID, parent, "cycles.score", func() (map[string]int64, error) {
		for i, c := range cfgs {
			p := cycles.Params{Assoc: c.Assoc, LineBytes: c.LineBytes, TilingSize: points[i].Tiling}
			if _, err := cycles.Count(p, stats[i].Hits, stats[i].Misses); err != nil {
				return nil, err
			}
		}
		return map[string]int64{"points": int64(len(cfgs))}, nil
	})
	return dBus + dSim + dEnergy + dCycles, err
}

// traceSpace is the (T, L, S) space of a trace sweep, with its cachesim
// configurations.
func traceSpace(opts core.Options) ([]core.ConfigPoint, []cachesim.Config) {
	opts.Tilings, opts.OptimizeLayout = []int{1}, false
	points := opts.Space()
	cfgs := make([]cachesim.Config, len(points))
	for i, p := range points {
		cfgs[i] = cachesim.DefaultConfig(p.CacheSize, p.LineSize, p.Assoc)
	}
	return points, cfgs
}

// prefixRefs bounds the references a sampled op's bus and cachesim spans
// replay: per-reference costs need a sample, not the whole artifact.
const prefixRefs = 1 << 18

// traceOp replays one trace sweep (an HTTP body or a CLI artifact):
// the core call, then decode, convert, bus, cachesim and scoring over
// the same stream, the two-way shard plan and its merge, the handler
// and the encoder; off the path, the Compress kernel behind the family.
func (rp *replayer) traceOp(o *op, open func() (io.ReadCloser, error), body []byte, opts core.Options, header string) error {
	root := rp.tr.open(o.id, 0, "op")
	counts := map[string]int64{}
	defer func() { rp.tr.close(root, counts) }()
	opts.Workers = 1
	plan, err := core.TraceSweepPlan(opts)
	if err != nil {
		return err
	}
	var ms []core.Metrics
	var st extrace.IngestStats
	coreDur, err := rp.tr.call(o.id, root, "core.op", func() (map[string]int64, error) {
		in, err := open()
		if err != nil {
			return nil, err
		}
		defer in.Close()
		ms, st, err = core.ExploreTraceReader(rp.ctx, in, opts, extrace.Options{})
		if err != nil {
			return nil, err
		}
		sampled := st.Records
		if ms[0].SampledRecords > 0 {
			sampled = ms[0].SampledRecords
		}
		return map[string]int64{"points": int64(len(ms)), "pass_units": int64(plan.PassUnits()), "workloads": 1,
			"records": st.Records, "sampled": sampled}, nil
	})
	if err != nil {
		return err
	}

	var refs []trace.Ref
	decDur, err := rp.tr.call(o.id, root, "extrace.decode", func() (map[string]int64, error) {
		in, err := open()
		if err != nil {
			return nil, err
		}
		defer in.Close()
		rd := extrace.NewReader(in, extrace.Options{})
		defer rd.Close()
		buf := make([]trace.Ref, cachesim.CancelCheckInterval)
		for {
			n, err := rd.Read(buf)
			if len(refs) < prefixRefs {
				refs = append(refs, buf[:min(n, prefixRefs-len(refs))]...)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		s := rd.Stats()
		return map[string]int64{"records": s.Records, "bytes": s.BytesRead}, nil
	})
	if err != nil {
		return err
	}
	if o.kind == kindTrace {
		if _, err := rp.tr.call(o.id, root, "extrace.convert", func() (map[string]int64, error) {
			n, _, err := extrace.TranscodeV2(io.Discard, bytes.NewReader(body), extrace.Options{})
			return map[string]int64{"records": n}, err
		}); err != nil {
			return err
		}
	}
	points, cfgs := traceSpace(opts)
	simDur, err := rp.simulate(o.id, root, refs, cfgs, points, opts.Energy)
	if err != nil {
		return err
	}
	// Scale the replayed layers to the work the core call did: it decoded
	// every record the index did not skip and simulated every sampled one.
	perDecoded := float64(decDur) / float64(st.Records)
	perSimulated := float64(simDur) / float64(len(refs))
	simulated := st.Records
	if ms[0].SampledRecords > 0 {
		simulated = ms[0].SampledRecords
	}
	counts["core_ns"] = int64(coreDur)
	counts["covered_ns"] = int64(perDecoded*float64(st.Records-st.RecordsSkipped) + perSimulated*float64(simulated))

	if err := rp.shards(o.id, root, open, opts, counts); err != nil {
		return err
	}
	counts["unsharded_ns"] = int64(coreDur)
	if err := rp.handler(o.id, root, "/v1/explore-trace", header, body); err != nil {
		return err
	}
	if err := rp.encode(o.id, root, service.TraceExploreResponse{Points: len(ms), Metrics: ms, Ingest: st}); err != nil {
		return err
	}
	return rp.compressLayers(o.id, root, points)
}

// shards runs the two-way shard plan of the stream and merges it,
// recording the slower shard as the critical path.
func (rp *replayer) shards(opID, parent int, open func() (io.ReadCloser, error), opts core.Options, counts map[string]int64) error {
	parts := make([][]core.Metrics, 2)
	for i := range parts {
		d, err := rp.tr.call(opID, parent, "core.shard", func() (map[string]int64, error) {
			in, err := open()
			if err != nil {
				return nil, err
			}
			defer in.Close()
			parts[i], _, err = core.ExploreTraceShard(rp.ctx, in, opts, extrace.Options{}, i, 2)
			return map[string]int64{"index": int64(i)}, err
		})
		if err != nil {
			return err
		}
		counts["shard_max_ns"] = max(counts["shard_max_ns"], int64(d))
	}
	_, err := rp.tr.call(opID, parent, "core.merge", func() (map[string]int64, error) {
		_, err := core.MergeTraceShards(opts, 2, parts)
		return nil, err
	})
	return err
}

// recordedTraceLayers runs a kernel op's references through the trace
// layers it does not use: encoded as din and mxt v2, decoded, converted,
// and swept as two shards against the unsharded sweep.
func (rp *replayer) recordedTraceLayers(opID, parent int, refs []trace.Ref, counts map[string]int64) error {
	var din, v2 bytes.Buffer
	if err := encodeTrace(&din, trace.FromRefs(refs).Reader(), "din"); err != nil {
		return err
	}
	if err := encodeTrace(&v2, trace.FromRefs(refs).Reader(), "mxt"); err != nil {
		return err
	}
	for _, b := range [][]byte{din.Bytes(), v2.Bytes()} {
		if _, err := rp.tr.call(opID, parent, "extrace.decode", func() (map[string]int64, error) {
			rd := extrace.NewReader(bytes.NewReader(b), extrace.Options{})
			defer rd.Close()
			buf := make([]trace.Ref, cachesim.CancelCheckInterval)
			for {
				if _, err := rd.Read(buf); err == io.EOF {
					break
				} else if err != nil {
					return nil, err
				}
			}
			s := rd.Stats()
			return map[string]int64{"records": s.Records, "bytes": s.BytesRead}, nil
		}); err != nil {
			return err
		}
	}
	if _, err := rp.tr.call(opID, parent, "extrace.convert", func() (map[string]int64, error) {
		n, _, err := extrace.TranscodeV2(io.Discard, bytes.NewReader(din.Bytes()), extrace.Options{})
		return map[string]int64{"records": n}, err
	}); err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(v2.Bytes())), nil }
	d, err := rp.tr.call(opID, parent, "core.trace", func() (map[string]int64, error) {
		_, _, err := core.ExploreTraceReader(rp.ctx, bytes.NewReader(v2.Bytes()), opts, extrace.Options{})
		return nil, err
	})
	if err != nil {
		return err
	}
	counts["unsharded_ns"] = int64(d)
	return rp.shards(opID, parent, open, opts, counts)
}

// compressLayers times, off a trace op's path, the kernel layers behind
// the trace family: generating the Compress segment, and the §4.1
// assignment of Compress for one geometry of the sweep space (rotating
// through them op by op).
func (rp *replayer) compressLayers(opID, parent int, points []core.ConfigPoint) error {
	var tn *loopir.Nest
	if _, err := rp.tr.call(opID, parent, "loopir.generate", func() (map[string]int64, error) {
		var err error
		if tn, err = loopir.TileAll(kernels.Compress(), 1); err != nil {
			return nil, err
		}
		t, err := tn.Generate(loopir.SequentialLayout(tn, 0))
		if err != nil {
			return nil, err
		}
		return map[string]int64{"refs": int64(t.Len())}, nil
	}); err != nil {
		return err
	}
	p := points[rp.geo%len(points)]
	rp.geo++
	_, err := rp.tr.call(opID, parent, "layout.optimize", func() (map[string]int64, error) {
		_, err := layout.Optimize(tn, p.LineSize, p.CacheSize/p.LineSize)
		return nil, err
	})
	return err
}

// handler serves the operation's request through the service's
// ServeHTTP on a recorder, result cache off.
func (rp *replayer) handler(opID, parent int, path, header string, body []byte) error {
	_, err := rp.tr.call(opID, parent, "service.handler", func() (map[string]int64, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if header != "" {
			req.Header.Set(optionsHeader, header)
		}
		rec := httptest.NewRecorder()
		rp.svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return map[string]int64{"bytes": int64(rec.Body.Len())}, nil
	})
	return err
}

// encode times the JSON encoding of a response struct the way the
// service writes it.
func (rp *replayer) encode(opID, parent int, v any) error {
	_, err := rp.tr.call(opID, parent, "service.encode", func() (map[string]int64, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err := enc.Encode(v)
		return map[string]int64{"bytes": int64(buf.Len())}, err
	})
	return err
}
