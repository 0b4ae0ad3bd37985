package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrDraining is returned by Submit and Do once Drain has started.
var ErrDraining = errors.New("jobs: runner is draining, not accepting new work")

// Fn is the body of a job: it runs the sweep under ctx, reports
// progress through rep, and returns the finished response body (the
// same JSON the synchronous endpoint would have written).
type Fn func(ctx context.Context, rep *Reporter) (result []byte, err error)

// MapError converts a job error into its machine-readable Failure —
// the service passes the same mapping its synchronous error envelope
// uses, so async failures carry exactly the sync error codes.
type MapError func(error) Failure

// Hooks are optional observability callbacks (any may be nil): gauge
// deltas for the queued/running job states and the occupied slots,
// counters for the terminal job states and for result-tier lookups.
// They run on caller and runner goroutines and must be cheap.
type Hooks struct {
	Submitted func()
	Queued    func(delta int64)
	Running   func(delta int64)
	Completed func()
	Failed    func()
	Canceled  func()
	Slots     func(delta int64) // slots taken (+1) and released (-1), jobs and Do alike
	CacheHit  func()            // content-keyed lookups the result tier answered
	CacheMiss func()            // content-keyed lookups that had to run
}

func (h Hooks) submitted()      { call0(h.Submitted) }
func (h Hooks) queued(d int64)  { call1(h.Queued, d) }
func (h Hooks) running(d int64) { call1(h.Running, d) }
func (h Hooks) completed()      { call0(h.Completed) }
func (h Hooks) failed()         { call0(h.Failed) }
func (h Hooks) canceled()       { call0(h.Canceled) }
func (h Hooks) slots(d int64)   { call1(h.Slots, d) }
func (h Hooks) hit()            { call0(h.CacheHit) }
func (h Hooks) miss()           { call0(h.CacheMiss) }
func call0(f func()) {
	if f != nil {
		f()
	}
}
func call1(f func(int64), d int64) {
	if f != nil {
		f(d)
	}
}

// Runner is the one place a process's sweeps wait for capacity, are
// recalled from the result tier, and are drained. A bounded slot pool
// caps how many sweeps run at once — async jobs (Submit) and
// synchronous calls (Do) alike; queued jobs wait in queued state.
// Cancel aborts a job through its context, and Drain waits for every
// accepted job and call to finish. Terminal job records are persisted
// to the Store, and results carrying a content key are published to the
// shared result tier, where later submissions and calls with the same
// key recall them without re-running the sweep.
type Runner struct {
	store  Store
	slots  chan struct{}
	mapErr MapError
	hooks  Hooks

	// mu guards live and draining. admit and Drain both take it, so a
	// call is either admitted before Drain starts waiting (and waited
	// for) or rejected with ErrDraining — never added to wg afterwards.
	mu       sync.Mutex
	live     map[string]*task
	draining bool

	wg sync.WaitGroup
}

// task is one live job: the mutable record plus the change-broadcast
// machinery watchers wait on.
type task struct {
	mu         sync.Mutex
	rec        Record
	seq        int64
	updated    chan struct{} // closed and replaced on every change
	cancelFn   context.CancelFunc
	userCancel bool
}

// bump applies mutate to the record under the lock and wakes watchers.
func (t *task) bump(mutate func(*Record)) {
	t.mu.Lock()
	mutate(&t.rec)
	t.seq++
	close(t.updated)
	t.updated = make(chan struct{})
	t.mu.Unlock()
}

// snapshot returns a copy of the record, its version, and the channel
// that will be closed on the next change.
func (t *task) snapshot() (Record, int64, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec.Clone(), t.seq, t.updated
}

// NewRunner builds a runner executing at most slots sweeps concurrently
// (≤ 0 means 2) over the given store. mapErr may be nil (failures then
// carry the "internal" code with the raw error text).
func NewRunner(store Store, slots int, mapErr MapError, hooks Hooks) *Runner {
	if slots <= 0 {
		slots = 2
	}
	if mapErr == nil {
		mapErr = func(err error) Failure {
			return Failure{Code: "internal", Message: err.Error()}
		}
	}
	return &Runner{
		store:  store,
		slots:  make(chan struct{}, slots),
		mapErr: mapErr,
		hooks:  hooks,
		live:   make(map[string]*task),
	}
}

// admit joins one call to the drain group, or fails with ErrDraining
// once Drain has started. The caller owes a wg.Done.
func (r *Runner) admit() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return ErrDraining
	}
	r.wg.Add(1)
	return nil
}

// recall looks contentKey up in the result tier and counts the lookup
// as a hit or a miss; an empty key is no lookup.
func (r *Runner) recall(contentKey string) (Record, bool) {
	if contentKey == "" {
		return Record{}, false
	}
	if hit, ok, err := r.store.Get(contentKey); err == nil && ok && hit.State == StateDone {
		r.hooks.hit()
		return hit, true
	}
	r.hooks.miss()
	return Record{}, false
}

// slotKey marks a context whose holder occupies one of a runner's slots.
type slotKey struct{}

// acquire waits for a free slot, or for ctx to end (then an error
// wrapping ctx.Err()). On success it returns the context marked as
// holding the slot and the function that releases it.
func (r *Runner) acquire(ctx context.Context) (context.Context, func(), error) {
	select {
	case r.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("jobs: waiting for a slot: %w", ctx.Err())
	}
	r.hooks.slots(+1)
	return context.WithValue(ctx, slotKey{}, r), func() {
		<-r.slots
		r.hooks.slots(-1)
	}, nil
}

// Do runs fn synchronously on one of the runner's slots — the pool
// Submit's jobs run on — and returns its result body. When contentKey
// is non-empty and the result tier holds a completed result under it,
// that body comes back with cached set and fn never runs; a fresh
// result is published under the key. Do writes no job record. It fails
// with ErrDraining once Drain has started, and with an error wrapping
// ctx.Err() if ctx ends while it waits for a slot.
//
// Called with a context that already holds one of r's slots — a job
// body, or the fn of another Do — Do runs fn on that slot instead of
// waiting for a second one, so no sweep ever waits for a slot while it
// holds one.
func (r *Runner) Do(ctx context.Context, contentKey string, fn func(context.Context) ([]byte, error)) (body []byte, cached bool, err error) {
	nested := ctx.Value(slotKey{}) == r
	if !nested {
		if err := r.admit(); err != nil {
			return nil, false, err
		}
		defer r.wg.Done()
	}
	if hit, ok := r.recall(contentKey); ok {
		return hit.Result, true, nil
	}
	if !nested {
		slotCtx, release, err := r.acquire(ctx)
		if err != nil {
			return nil, false, err
		}
		defer release()
		ctx = slotCtx
	}
	body, err = fn(ctx)
	if err != nil {
		return nil, false, err
	}
	if contentKey != "" {
		now := time.Now().UTC()
		// Best-effort publication, as for jobs.
		_ = r.store.Put(contentKey, Record{
			State: StateDone, CreatedAt: now, FinishedAt: &now,
			ContentKey: contentKey, Result: body,
		})
	}
	return body, false, nil
}

// Submit accepts a job and returns its queued record immediately. When
// contentKey is non-empty and the shared result tier already holds a
// completed result under it, the returned record is already done (with
// Cached set) and fn never runs.
func (r *Runner) Submit(kind, contentKey string, fn Fn) (Record, error) {
	if err := r.admit(); err != nil {
		return Record{}, err
	}
	now := time.Now().UTC()
	if hit, ok := r.recall(contentKey); ok {
		defer r.wg.Done()
		rec := Record{
			ID: NewID(), Kind: kind, State: StateDone, Cached: true,
			CreatedAt: now, StartedAt: &now, FinishedAt: &now,
			Progress: hit.Progress, ContentKey: contentKey, Result: hit.Result,
		}
		if err := r.store.Put(rec.ID, rec); err != nil {
			return Record{}, fmt.Errorf("jobs: persisting recalled result: %w", err)
		}
		r.hooks.submitted()
		r.hooks.completed()
		return rec, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	t := &task{
		rec: Record{
			ID: NewID(), Kind: kind, State: StateQueued,
			CreatedAt: now, ContentKey: contentKey,
		},
		updated:  make(chan struct{}),
		cancelFn: cancel,
	}
	r.mu.Lock()
	r.live[t.rec.ID] = t
	r.mu.Unlock()
	r.hooks.submitted()
	r.hooks.queued(+1)
	go func() {
		defer r.wg.Done()
		defer cancel()
		r.run(ctx, t, fn)
	}()
	rec, _, _ := t.snapshot()
	return rec, nil
}

// run executes one job: wait for a slot, flip to running, call fn, and
// settle the terminal state.
func (r *Runner) run(ctx context.Context, t *task, fn Fn) {
	ctx, release, err := r.acquire(ctx)
	if err != nil {
		// Canceled while still queued: never ran.
		r.hooks.queued(-1)
		r.settle(t, StateCanceled, nil, nil)
		return
	}
	defer release()

	started := time.Now().UTC()
	t.bump(func(rec *Record) {
		rec.State = StateRunning
		rec.StartedAt = &started
	})
	r.hooks.queued(-1)
	r.hooks.running(+1)
	defer r.hooks.running(-1)

	result, err := fn(ctx, &Reporter{t: t})
	t.mu.Lock()
	userCancel := t.userCancel
	t.mu.Unlock()
	switch {
	case err == nil:
		r.settle(t, StateDone, result, nil)
	default:
		f := r.mapErr(err)
		if userCancel || f.Code == "canceled" {
			r.settle(t, StateCanceled, nil, nil)
		} else {
			r.settle(t, StateFailed, nil, &f)
		}
	}
}

// settle moves the task to its terminal state, persists the record, and
// publishes content-keyed results to the shared tier. The task leaves
// the live map only after a successful persist, so a failing store
// degrades to in-memory-only visibility instead of losing the job.
func (r *Runner) settle(t *task, state State, result []byte, failure *Failure) {
	finished := time.Now().UTC()
	t.bump(func(rec *Record) {
		rec.State = state
		rec.FinishedAt = &finished
		rec.Result = result
		rec.Error = failure
	})
	switch state {
	case StateDone:
		r.hooks.completed()
	case StateFailed:
		r.hooks.failed()
	case StateCanceled:
		r.hooks.canceled()
	}
	rec, _, _ := t.snapshot()
	if err := r.store.Put(rec.ID, rec); err != nil {
		return // keep the task live; Get still serves it from memory
	}
	if state == StateDone && rec.ContentKey != "" {
		// Best-effort publication to the shared result tier.
		_ = r.store.Put(rec.ContentKey, rec)
	}
	r.mu.Lock()
	delete(r.live, rec.ID)
	r.mu.Unlock()
}

// Get returns the job's current record: the live snapshot while it is
// queued or running, the persisted record afterwards.
func (r *Runner) Get(id string) (Record, bool, error) {
	r.mu.Lock()
	t := r.live[id]
	r.mu.Unlock()
	if t != nil {
		rec, _, _ := t.snapshot()
		return rec, true, nil
	}
	return r.store.Get(id)
}

// Cancel requests cancellation of a live job through its context and
// returns the job's current record. Canceling a job that already
// reached a terminal state is a no-op returning that state.
func (r *Runner) Cancel(id string) (Record, bool, error) {
	r.mu.Lock()
	t := r.live[id]
	r.mu.Unlock()
	if t == nil {
		return r.store.Get(id)
	}
	t.mu.Lock()
	t.userCancel = true
	t.mu.Unlock()
	t.cancelFn()
	rec, _, _ := t.snapshot()
	return rec, true, nil
}

// Watch streams the job's record versions to fn, starting with the
// current one, until the job reaches a terminal state (fn sees it as
// the final call, then Watch returns nil), ctx is done (ctx.Err()), or
// fn returns an error. Rapid successive updates may be coalesced: fn
// always sees the newest record, not necessarily every intermediate
// one, and versions are strictly ordered.
func (r *Runner) Watch(ctx context.Context, id string, fn func(Record) error) (found bool, err error) {
	r.mu.Lock()
	t := r.live[id]
	r.mu.Unlock()
	if t == nil {
		rec, ok, err := r.store.Get(id)
		if err != nil || !ok {
			return ok, err
		}
		return true, fn(rec)
	}
	last := int64(-1)
	for {
		rec, seq, updated := t.snapshot()
		if seq > last {
			last = seq
			if err := fn(rec); err != nil {
				return true, err
			}
			if rec.State.Terminal() {
				return true, nil
			}
			continue
		}
		select {
		case <-updated:
		case <-ctx.Done():
			return true, ctx.Err()
		}
	}
}

// Drain stops accepting submissions and Do calls and waits until every
// accepted job has reached a terminal state and every admitted Do call
// has returned, or ctx expires (then ctx.Err()). Running work is not
// canceled — callers wanting a hard stop Cancel jobs first.
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has started.
func (r *Runner) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Reporter feeds a running job's progress. All methods are safe for
// concurrent use from the sweep's worker goroutines.
type Reporter struct {
	t *task
}

// SetTotals records the sweep plan's totals (configuration points and
// simulation pass units) so clients can render completion ratios.
func (p *Reporter) SetTotals(points, passUnits int64) {
	p.t.bump(func(rec *Record) {
		rec.Progress.Points = points
		rec.Progress.PassUnits = passUnits
	})
}

// Add advances the progress counters by the given deltas and wakes
// watchers.
func (p *Reporter) Add(records, chunks, points, passUnits int64) {
	p.t.bump(func(rec *Record) {
		rec.Progress.Records += records
		rec.Progress.Chunks += chunks
		rec.Progress.PointsDone += points
		rec.Progress.PassUnitsDone += passUnits
	})
}

// AddChild records a child job id on the running job's record, so the
// parent-child link survives into the persisted record and store cleanup
// can cascade.
func (p *Reporter) AddChild(id string) {
	p.t.bump(func(rec *Record) {
		rec.Children = append(rec.Children, id)
	})
}
