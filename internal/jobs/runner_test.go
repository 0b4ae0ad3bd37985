package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitTerminal watches id to its terminal record (with a test
// timeout), returning every record version the watcher observed.
func awaitTerminal(t *testing.T, r *Runner, id string) []Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seen []Record
	found, err := r.Watch(ctx, id, func(rec Record) error {
		seen = append(seen, rec)
		return nil
	})
	if err != nil || !found {
		t.Fatalf("Watch = found=%v err=%v", found, err)
	}
	return seen
}

func TestRunnerLifecycle(t *testing.T) {
	store := NewMemStore(0, 0)
	r := NewRunner(store, 1, nil, Hooks{})
	rec, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		rep.SetTotals(4, 2)
		rep.Add(100, 1, 4, 2)
		return []byte(`{"ok":true}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.State != StateQueued || rec.CreatedAt.IsZero() {
		t.Fatalf("submit record = %+v", rec)
	}

	seen := awaitTerminal(t, r, rec.ID)
	final := seen[len(seen)-1]
	if final.State != StateDone {
		t.Fatalf("final state = %s (%+v)", final.State, final.Error)
	}
	if string(final.Result) != `{"ok":true}` {
		t.Fatalf("result = %s", final.Result)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatal("terminal record missing timestamps")
	}
	if final.Progress.Records != 100 || final.Progress.PointsDone != 4 || final.Progress.PassUnits != 2 {
		t.Fatalf("progress = %+v", final.Progress)
	}

	// The terminal record is persisted and served from the store.
	got, ok, err := r.Get(rec.ID)
	if err != nil || !ok {
		t.Fatalf("Get after settle = ok=%v err=%v", ok, err)
	}
	if got.State != StateDone {
		t.Fatalf("stored state = %s", got.State)
	}
	if _, ok, _ := store.Get(rec.ID); !ok {
		t.Fatal("record not in the store")
	}
}

// TestRunnerWatchOrdering pins the watch contract: versions are
// strictly ordered, states never regress, progress never decreases, and
// the terminal record is the last delivery.
func TestRunnerWatchOrdering(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	rec, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		for i := 0; i < 50; i++ {
			rep.Add(10, 1, 0, 0)
		}
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := awaitTerminal(t, r, rec.ID)

	rank := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2, StateFailed: 2, StateCanceled: 2}
	lastRank, lastRecords := -1, int64(-1)
	for i, s := range seen {
		if rank[s.State] < lastRank {
			t.Fatalf("state regressed at %d: %v", i, states(seen))
		}
		lastRank = rank[s.State]
		if s.Progress.Records < lastRecords {
			t.Fatalf("progress regressed at %d", i)
		}
		lastRecords = s.Progress.Records
		if s.State.Terminal() && i != len(seen)-1 {
			t.Fatalf("terminal state delivered mid-stream: %v", states(seen))
		}
	}
	if final := seen[len(seen)-1]; !final.State.Terminal() || final.Progress.Records != 500 {
		t.Fatalf("final = %s with %d records", final.State, final.Progress.Records)
	}

	// Watching a settled job delivers exactly its stored record.
	var replays []Record
	found, err := r.Watch(context.Background(), rec.ID, func(rec Record) error {
		replays = append(replays, rec)
		return nil
	})
	if err != nil || !found || len(replays) != 1 || replays[0].State != StateDone {
		t.Fatalf("settled watch = found=%v err=%v records=%d", found, err, len(replays))
	}
}

func states(recs []Record) []State {
	out := make([]State, len(recs))
	for i, r := range recs {
		out[i] = r.State
	}
	return out
}

func TestRunnerCancelWhileRunning(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	started := make(chan struct{})
	rec, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok, err := r.Cancel(rec.ID); err != nil || !ok {
		t.Fatalf("Cancel = ok=%v err=%v", ok, err)
	}
	seen := awaitTerminal(t, r, rec.ID)
	final := seen[len(seen)-1]
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if final.Error != nil || final.Result != nil {
		t.Fatalf("canceled record carries error/result: %+v", final)
	}
	// The runner fully drains afterwards: no goroutine is stuck.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain after cancel: %v", err)
	}
}

func TestRunnerCancelWhileQueued(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	release := make(chan struct{})
	holding := make(chan struct{})
	blocker, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		close(holding)
		<-release
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-holding // the slot is taken; the next job must queue
	var ran atomic.Bool
	queued, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		ran.Store(true)
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Cancel(queued.ID); !ok {
		t.Fatal("Cancel(queued) not found")
	}
	final := awaitTerminal(t, r, queued.ID)
	if st := final[len(final)-1].State; st != StateCanceled {
		t.Fatalf("queued-cancel state = %s", st)
	}
	if final[len(final)-1].StartedAt != nil || ran.Load() {
		t.Fatal("queued-canceled job ran anyway")
	}
	close(release)
	awaitTerminal(t, r, blocker.ID)
}

func TestRunnerContentKeyRecall(t *testing.T) {
	var hooks struct{ submitted, completed, hits, misses atomic.Int64 }
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{
		Submitted: func() { hooks.submitted.Add(1) },
		Completed: func() { hooks.completed.Add(1) },
		CacheHit:  func() { hooks.hits.Add(1) },
		CacheMiss: func() { hooks.misses.Add(1) },
	})
	first, err := r.Submit("explore", "key-1", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		return []byte(`{"answer":42}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitTerminal(t, r, first.ID)

	// Same content key: answered from the result tier, fn never runs.
	second, err := r.Submit("explore", "key-1", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		t.Error("recalled submission ran its fn")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached || string(second.Result) != `{"answer":42}` {
		t.Fatalf("recalled record = %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("recalled submission reused the original job id")
	}
	// The recalled job is itself readable under its own id.
	if got, ok, _ := r.Get(second.ID); !ok || got.State != StateDone {
		t.Fatalf("recalled job not readable: ok=%v %+v", ok, got)
	}
	if hooks.hits.Load() != 1 || hooks.misses.Load() != 1 || hooks.submitted.Load() != 2 || hooks.completed.Load() != 2 {
		t.Fatalf("hooks = submitted %d completed %d hits %d misses %d",
			hooks.submitted.Load(), hooks.completed.Load(), hooks.hits.Load(), hooks.misses.Load())
	}

	// A different key still runs.
	third, err := r.Submit("explore", "key-2", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		return []byte(`{"answer":7}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.State != StateQueued {
		t.Fatalf("fresh key state = %s", third.State)
	}
	awaitTerminal(t, r, third.ID)
}

func TestRunnerFailureMapping(t *testing.T) {
	mapErr := func(err error) Failure {
		return Failure{Code: "invalid_options", Message: err.Error(), Field: "sizes"}
	}
	r := NewRunner(NewMemStore(0, 0), 1, mapErr, Hooks{})
	rec, err := r.Submit("explore", "fail-key", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		return nil, errors.New("bad geometry")
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := awaitTerminal(t, r, rec.ID)
	final := seen[len(seen)-1]
	if final.State != StateFailed || final.Error == nil {
		t.Fatalf("final = %+v", final)
	}
	if final.Error.Code != "invalid_options" || final.Error.Field != "sizes" {
		t.Fatalf("failure = %+v", final.Error)
	}
	// Failed results are never published to the content tier.
	again, err := r.Submit("explore", "fail-key", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateQueued {
		t.Fatal("failed result was recalled from the content tier")
	}
	awaitTerminal(t, r, again.ID)
}

func TestRunnerDrain(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	release := make(chan struct{})
	rec, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		<-release
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drain blocks on the running job (bounded ctx says so), and new
	// submissions are rejected.
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := r.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with running job = %v", err)
	}
	if _, err := r.Submit("explore", "", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v", err)
	}

	close(release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	if got, _, _ := r.Get(rec.ID); got.State != StateDone {
		t.Fatalf("drained job state = %s", got.State)
	}
}

func TestRunnerWatchUnknown(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	found, err := r.Watch(context.Background(), "nope", func(Record) error { return nil })
	if found || err != nil {
		t.Fatalf("Watch(unknown) = %v %v", found, err)
	}
	if _, ok, _ := r.Get("nope"); ok {
		t.Fatal("Get(unknown) found something")
	}
	if _, ok, _ := r.Cancel("nope"); ok {
		t.Fatal("Cancel(unknown) found something")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 32 || seen[id] {
			t.Fatalf("NewID() = %q (dup=%v)", id, seen[id])
		}
		seen[id] = true
	}
}

// TestRunnerSlotLimit checks the pool bound: with one slot, two jobs
// never run concurrently.
func TestRunnerSlotLimit(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	var running, maxRunning atomic.Int64
	body := func(ctx context.Context, rep *Reporter) ([]byte, error) {
		n := running.Add(1)
		for {
			m := maxRunning.Load()
			if n <= m || maxRunning.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		running.Add(-1)
		return []byte(`{}`), nil
	}
	var ids []string
	for i := 0; i < 3; i++ {
		rec, err := r.Submit("explore", fmt.Sprintf("k%d", i), body)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		awaitTerminal(t, r, id)
	}
	if maxRunning.Load() != 1 {
		t.Fatalf("max concurrent jobs = %d, want 1", maxRunning.Load())
	}
}

// TestRunnerDoSharesResultTier: synchronous calls and jobs recall each
// other's results through one content-keyed tier, count every keyed
// lookup once as a hit or a miss, and never publish a failure.
func TestRunnerDoSharesResultTier(t *testing.T) {
	var hits, misses atomic.Int64
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{
		CacheHit:  func() { hits.Add(1) },
		CacheMiss: func() { misses.Add(1) },
	})
	ctx := context.Background()
	mustNotRun := func(context.Context) ([]byte, error) {
		t.Error("recalled call ran its fn")
		return nil, nil
	}

	body, cached, err := r.Do(ctx, "k1", func(context.Context) ([]byte, error) { return []byte(`{"a":1}`), nil })
	if err != nil || cached || string(body) != `{"a":1}` {
		t.Fatalf("first Do = %s cached=%v err=%v", body, cached, err)
	}
	body, cached, err = r.Do(ctx, "k1", mustNotRun)
	if err != nil || !cached || string(body) != `{"a":1}` {
		t.Fatalf("repeated Do = %s cached=%v err=%v", body, cached, err)
	}
	// A sync result answers a later job...
	job, err := r.Submit("explore", "k1", func(context.Context, *Reporter) ([]byte, error) { return mustNotRun(ctx) })
	if err != nil || job.State != StateDone || !job.Cached || string(job.Result) != `{"a":1}` {
		t.Fatalf("job after Do = %+v err=%v", job, err)
	}
	// ...and a job's result answers a later sync call.
	job, err = r.Submit("explore", "k2", func(context.Context, *Reporter) ([]byte, error) { return []byte(`{"b":2}`), nil })
	if err != nil {
		t.Fatal(err)
	}
	awaitTerminal(t, r, job.ID)
	body, cached, err = r.Do(ctx, "k2", mustNotRun)
	if err != nil || !cached || string(body) != `{"b":2}` {
		t.Fatalf("Do after job = %s cached=%v err=%v", body, cached, err)
	}
	// Failures are not published; unkeyed calls are no lookup at all.
	for i := 0; i < 2; i++ {
		if _, _, err := r.Do(ctx, "k3", func(context.Context) ([]byte, error) { return nil, errors.New("boom") }); err == nil {
			t.Fatal("failing Do reported success")
		}
	}
	if _, cached, _ := r.Do(ctx, "", func(context.Context) ([]byte, error) { return []byte(`{}`), nil }); cached {
		t.Fatal("unkeyed Do reported a recall")
	}
	if hits.Load() != 3 || misses.Load() != 4 {
		t.Fatalf("lookups = %d hits %d misses, want 3 and 4", hits.Load(), misses.Load())
	}
}

// TestRunnerDoSharesSlots: a synchronous call waits on the same slots
// as jobs, gives up when its context ends, and runs once a slot frees.
func TestRunnerDoSharesSlots(t *testing.T) {
	var busy atomic.Int64
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{Slots: func(d int64) { busy.Add(d) }})
	release := make(chan struct{})
	holding := make(chan struct{})
	job, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		close(holding)
		<-release
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-holding
	if busy.Load() != 1 {
		t.Fatalf("slots busy = %d with one running job, want 1", busy.Load())
	}
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := r.Do(short, "", func(context.Context) ([]byte, error) {
		t.Error("Do ran while the only slot was held")
		return nil, nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do behind a held slot = %v, want deadline exceeded", err)
	}
	close(release)
	awaitTerminal(t, r, job.ID)
	if body, _, err := r.Do(context.Background(), "", func(context.Context) ([]byte, error) { return []byte(`ok`), nil }); err != nil || string(body) != "ok" {
		t.Fatalf("Do after release = %s %v", body, err)
	}
	if busy.Load() != 0 {
		t.Fatalf("slots busy = %d when idle, want 0", busy.Load())
	}
}

// TestRunnerDoNested: calls made from inside a slot — a job's legs, or
// a Do inside a Do — run on the holder's slot, so a one-slot runner
// finishes them instead of deadlocking.
func TestRunnerDoNested(t *testing.T) {
	r := NewRunner(NewMemStore(0, 0), 1, nil, Hooks{})
	leg := func(ctx context.Context) ([]byte, error) {
		inner, _, err := r.Do(ctx, "", func(context.Context) ([]byte, error) { return []byte("x"), nil })
		return inner, err
	}
	job, err := r.Submit("explore", "", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				_, _, err := r.Do(ctx, "", leg)
				errs <- err
			}()
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				return nil, err
			}
		}
		return []byte(`{}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := awaitTerminal(t, r, job.ID); final[len(final)-1].State != StateDone {
		t.Fatalf("nested job = %+v", final[len(final)-1])
	}
	if body, _, err := r.Do(context.Background(), "", leg); err != nil || string(body) != "x" {
		t.Fatalf("nested Do = %s %v", body, err)
	}
}

// TestRunnerDrainRace races Submit and Do against Drain: every call
// accepted finishes before Drain returns, and every call turned away
// gets ErrDraining. Run under -race this also catches a WaitGroup Add
// racing Wait.
func TestRunnerDrainRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		r := NewRunner(NewMemStore(0, 0), 2, nil, Hooks{})
		var accepted, finished atomic.Int64
		work := func() { finished.Add(1) }
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				var err error
				if i%2 == 0 {
					_, err = r.Submit("explore", "", func(context.Context, *Reporter) ([]byte, error) {
						work()
						return []byte(`{}`), nil
					})
				} else {
					_, _, err = r.Do(context.Background(), "", func(context.Context) ([]byte, error) {
						work()
						return nil, nil
					})
				}
				switch {
				case err == nil:
					accepted.Add(1)
				case !errors.Is(err, ErrDraining):
					t.Errorf("call failed with %v, want nil or ErrDraining", err)
				}
			}(i)
		}
		close(start)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.Drain(ctx); err != nil {
			t.Fatalf("round %d: Drain = %v", round, err)
		}
		cancel()
		atDrain := finished.Load()
		wg.Wait()
		if atDrain != accepted.Load() {
			t.Fatalf("round %d: %d calls accepted, %d finished before Drain returned", round, accepted.Load(), atDrain)
		}
	}
}

// gatedStore holds the first Put of a terminal record until release is
// closed; entered is closed when that Put arrives.
type gatedStore struct {
	Store
	entered, release chan struct{}
	once             sync.Once
}

func (s *gatedStore) Put(key string, rec Record) error {
	if rec.State.Terminal() {
		s.once.Do(func() {
			close(s.entered)
			<-s.release
		})
	}
	return s.Store.Put(key, rec)
}

// TestRunnerPersistsBeforeTerminal pins the settle order: while the
// store is still writing a finished job's record, Get and Watch report
// the job running, so no client learns it is done before a replica
// sharing the store can read the record and its content-keyed result.
func TestRunnerPersistsBeforeTerminal(t *testing.T) {
	store := &gatedStore{Store: NewMemStore(0, 0), entered: make(chan struct{}), release: make(chan struct{})}
	r := NewRunner(store, 1, nil, Hooks{})
	rec, err := r.Submit("explore", "content", func(ctx context.Context, rep *Reporter) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the terminal record never reached the store")
	}

	if got, ok, err := r.Get(rec.ID); err != nil || !ok || got.State != StateRunning {
		t.Errorf("Get during the terminal Put = %s (found %v, err %v), want running", got.State, ok, err)
	}
	stop := errors.New("stop")
	var current Record
	if _, err := r.Watch(context.Background(), rec.ID, func(rec Record) error {
		current = rec
		return stop
	}); !errors.Is(err, stop) || current.State != StateRunning {
		t.Errorf("Watch during the terminal Put = %s (err %v), want running", current.State, err)
	}
	watched := make(chan Record, 1)
	go func() {
		var last Record
		if _, err := r.Watch(context.Background(), rec.ID, func(rec Record) error {
			last = rec
			return nil
		}); err != nil {
			t.Errorf("Watch: %v", err)
		}
		watched <- last
	}()

	close(store.release)
	select {
	case final := <-watched:
		if final.State != StateDone {
			t.Fatalf("final state = %s", final.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Watch never reported the terminal state")
	}
	for _, key := range []string{rec.ID, "content"} {
		if got, ok, err := store.Store.Get(key); err != nil || !ok || got.State != StateDone {
			t.Errorf("store[%s] = %s (found %v, err %v), want done", key, got.State, ok, err)
		}
	}
}
