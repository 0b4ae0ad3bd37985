package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memexplore/internal/jobs"
)

// distHeaderJSON is traceHeaderJSON plus a distributed shard count.
func distHeaderJSON(shards int) string {
	return fmt.Sprintf(`{"kind":"explore-trace","options":{"cache_sizes":[32,64],"line_sizes":[4,8],"assocs":[1]},"shards":%d}`, shards)
}

// distPair builds a coordinator/peer replica pair sharing one jobs
// directory, the peer reachable over real HTTP (the coordinator dials
// it). Both are shut down with the test.
func distPair(t *testing.T) (*Server, *Server, string) {
	t.Helper()
	dir := t.TempDir()
	peer := MustNew(Config{MaxConcurrentSweeps: 2, CacheEntries: 8, JobsDir: dir, MaxBodyBytes: 64 << 20})
	ts := httptest.NewServer(peer)
	coord := MustNew(Config{MaxConcurrentSweeps: 2, CacheEntries: 8, JobsDir: dir, MaxBodyBytes: 64 << 20, Peers: []string{ts.URL}})
	t.Cleanup(func() {
		ts.Close()
	})
	return coord, peer, ts.URL
}

// submitJob posts one async job and returns the accepted record.
func submitJob(t *testing.T, s *Server, header string, body []byte) jobs.Record {
	t.Helper()
	w := doJSON(t, s, "POST", "/v1/jobs", http.Header{OptionsHeader: {header}}, body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	return decodeRecord(t, w)
}

// TestDistTraceTwoReplicaByteIdentical is the tentpole's acceptance
// contract end-to-end: a two-replica distributed sweep over a shared
// jobs directory produces a result byte-identical to the local run —
// sync response and async job result alike — ships zero trace bytes
// over the wire (the trace travels once, as a shared-store blob), and
// records the dispatched child on the parent job.
func TestDistTraceTwoReplicaByteIdentical(t *testing.T) {
	coord, _, _ := distPair(t)
	din := bigDin(t, 60_000)

	// Reference: plain local sweep on the same coordinator.
	localSync := doJSON(t, coord, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if localSync.Code != http.StatusOK {
		t.Fatalf("local sync = %d: %s", localSync.Code, localSync.Body)
	}

	shipped := vars.distBytesShipped.Value()
	dispatched := vars.distShardsDispatched.Value()

	distSync := doJSON(t, coord, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {distHeaderJSON(2)}}, din)
	if distSync.Code != http.StatusOK {
		t.Fatalf("dist sync = %d: %s", distSync.Code, distSync.Body)
	}
	if got, want := distSync.Body.String(), localSync.Body.String(); got != want {
		t.Errorf("distributed sync response differs from local:\ndist:  %.200s\nlocal: %.200s", got, want)
	}
	if d := vars.distShardsDispatched.Value() - dispatched; d != 2 {
		t.Errorf("dist_shards_dispatched advanced by %d, want 2", d)
	}
	if d := vars.distBytesShipped.Value() - shipped; d != 0 {
		t.Errorf("dist_bytes_shipped advanced by %d; a shared store must hand the trace off as a blob", d)
	}

	// The async form: a distributed parent job records its child and its
	// result matches the local job's bytes exactly.
	localRec := awaitJob(t, coord, submitJob(t, coord, traceHeaderJSON, din).ID)
	if localRec.State != jobs.StateDone {
		t.Fatalf("local job = %s (%+v)", localRec.State, localRec.Error)
	}
	distRec := awaitJob(t, coord, submitJob(t, coord, distHeaderJSON(2), din).ID)
	if distRec.State != jobs.StateDone {
		t.Fatalf("dist job = %s (%+v)", distRec.State, distRec.Error)
	}
	if string(distRec.Result) != string(localRec.Result) {
		t.Error("distributed job result differs from local job result")
	}
	if len(distRec.Children) != 1 {
		t.Errorf("parent job recorded %d children, want 1", len(distRec.Children))
	}
	// Sync and async distributed forms agree byte-for-byte too.
	if want := strings.TrimSuffix(distSync.Body.String(), "\n"); string(distRec.Result) != want {
		t.Error("async distributed result differs from sync distributed body")
	}
}

// TestDistTracePeerDownFallback: every shard of a sweep whose peer is
// unreachable falls back to local execution — the result stays
// byte-identical and the failure is counted, never surfaced.
func TestDistTracePeerDownFallback(t *testing.T) {
	// A peer that is down from the start: reserve a port, then close it.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	coord := MustNew(Config{MaxConcurrentSweeps: 2, CacheEntries: 8, Peers: []string{deadURL}})
	plain := MustNew(Config{MaxConcurrentSweeps: 2, CacheEntries: 8})
	din := kernelDin(t)

	failures := vars.distPeerFailures.Value()
	distW := doJSON(t, coord, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {distHeaderJSON(2)}}, din)
	if distW.Code != http.StatusOK {
		t.Fatalf("dist sweep with dead peer = %d: %s", distW.Code, distW.Body)
	}
	localW := doJSON(t, plain, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if localW.Code != http.StatusOK {
		t.Fatalf("local sweep = %d: %s", localW.Code, localW.Body)
	}
	if distW.Body.String() != localW.Body.String() {
		t.Error("peer-down fallback result differs from the local sweep")
	}
	if d := vars.distPeerFailures.Value() - failures; d < 1 {
		t.Errorf("dist_peer_failures advanced by %d, want ≥ 1", d)
	}
}

// TestDistTraceAllLocalShards: with no peers configured, an explicit
// shard count still partitions and merges — every leg runs locally —
// and stays byte-identical to the unsharded sweep for several counts.
func TestDistTraceAllLocalShards(t *testing.T) {
	s := MustNew(Config{MaxConcurrentSweeps: 4, CacheEntries: 8})
	din := kernelDin(t)
	want := doJSON(t, s, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if want.Code != http.StatusOK {
		t.Fatalf("local sweep = %d: %s", want.Code, want.Body)
	}
	for _, n := range []int{2, 3, 8} {
		got := doJSON(t, s, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {distHeaderJSON(n)}}, din)
		if got.Code != http.StatusOK {
			t.Fatalf("shards=%d: %d: %s", n, got.Code, got.Body)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("shards=%d: sharded-local sweep differs from unsharded", n)
		}
	}
}

// TestDistAutoShards: shards=-1 resolves to one shard per replica.
func TestDistAutoShards(t *testing.T) {
	coord, _, _ := distPair(t)
	din := kernelDin(t)
	dispatched := vars.distShardsDispatched.Value()
	w := doJSON(t, coord, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {distHeaderJSON(-1)}}, din)
	if w.Code != http.StatusOK {
		t.Fatalf("auto shards = %d: %s", w.Code, w.Body)
	}
	if d := vars.distShardsDispatched.Value() - dispatched; d != 2 {
		t.Errorf("auto with 1 peer dispatched %d shards, want 2", d)
	}
}

// TestDistChildCancelOnParentDelete: DELETE on a distributed parent job
// cancels the shard job it dispatched to the peer.
func TestDistChildCancelOnParentDelete(t *testing.T) {
	coord, peer, _ := distPair(t)
	din := bigDin(t, 6_000_000)

	parent := submitJob(t, coord, distHeaderJSON(2), din)

	// Wait until the parent has dispatched its child.
	var childID string
	deadline := time.Now().Add(30 * time.Second)
	for childID == "" {
		cur := decodeRecord(t, doJSON(t, coord, "GET", "/v1/jobs/"+parent.ID, nil, nil))
		if len(cur.Children) > 0 {
			childID = cur.Children[0]
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("parent finished (%s) before dispatching a child; enlarge the trace", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("parent never dispatched a child job")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if w := doJSON(t, coord, "DELETE", "/v1/jobs/"+parent.ID, nil, nil); w.Code != http.StatusOK {
		t.Fatalf("cancel parent = %d: %s", w.Code, w.Body)
	}
	final := awaitJob(t, coord, parent.ID)
	if final.State != jobs.StateCanceled {
		t.Fatalf("parent final state = %s, want canceled", final.State)
	}
	child := awaitJob(t, peer, childID)
	if child.State != jobs.StateCanceled {
		t.Errorf("child final state = %s, want canceled (parent cancellation must propagate)", child.State)
	}
}

// TestDistOneSlot: with a single slot, no sweep waits for a slot while
// holding one. A distributed job whose peer is dead runs every fallback
// leg on the job's own slot; a sync two-shard sweep takes the slot once
// per local leg and none while it dials the peer. Both finish and match
// the local sweep byte for byte.
func TestDistOneSlot(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	s := MustNew(Config{MaxConcurrentSweeps: 1, Peers: []string{deadURL}})
	din := kernelDin(t)
	local := doJSON(t, s, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {traceHeaderJSON}}, din)
	if local.Code != http.StatusOK {
		t.Fatalf("local sweep = %d: %s", local.Code, local.Body)
	}

	rec := awaitJob(t, s, submitJob(t, s, distHeaderJSON(2), din).ID)
	if rec.State != jobs.StateDone {
		t.Fatalf("dist job = %s (%+v)", rec.State, rec.Error)
	}
	if want := strings.TrimSuffix(local.Body.String(), "\n"); string(rec.Result) != want {
		t.Error("one-slot distributed job differs from the local sweep")
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doJSON(t, s, "POST", "/v1/explore-trace", http.Header{OptionsHeader: {distHeaderJSON(2)}}, din)
	}()
	select {
	case w := <-done:
		if w.Code != http.StatusOK || w.Body.String() != local.Body.String() {
			t.Errorf("one-slot sync two-shard sweep = %d, differs from the local sweep", w.Code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("one-slot sync two-shard sweep deadlocked")
	}
}
