package org

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/power"
)

// memoPoint is one simulation operating point shared by the memo tests.
func memoPoint(t *testing.T) (floorplan.Placement, power.DVFSPoint, int) {
	t.Helper()
	pl, err := floorplan.UniformGrid(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return pl, power.FrequencySet[2], 128
}

func TestMemoFetchRoundTrip(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, op, p := memoPoint(t)
	rec, st, err := eng.Simulate(context.Background(), cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sims != 1 {
		t.Fatalf("sims = %d, want 1 fresh simulation", st.Sims)
	}
	hashes := eng.MemoKeyHashes(8)
	if len(hashes) != 1 {
		t.Fatalf("memo key hashes = %v, want exactly one", hashes)
	}
	got, ok := eng.MemoFetch(hashes[0])
	if !ok || got != rec {
		t.Fatalf("MemoFetch = %+v (ok=%v), want the simulated record %+v", got, ok, rec)
	}
	if _, ok := eng.MemoFetch("no-such-hash"); ok {
		t.Error("MemoFetch answered an unknown key hash")
	}
}

func TestPeerFetchServesMemoMiss(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FingerprintHash() != b.FingerprintHash() {
		t.Fatal("same config produced different fingerprint hashes")
	}
	pl, op, p := memoPoint(t)
	want, _, err := a.Simulate(context.Background(), cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	b.SetPeerFetch(func(_ context.Context, fpHash, keyHash string) (SimRecord, bool) {
		calls++
		if fpHash != a.FingerprintHash() {
			t.Errorf("hook fingerprint = %s, want %s", fpHash, a.FingerprintHash())
		}
		return a.MemoFetch(keyHash)
	})
	got, st, err := b.Simulate(context.Background(), cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("peer-fetched record %+v != owner's %+v", got, want)
	}
	if st.Sims != 0 || st.PeerFetches != 1 {
		t.Errorf("stats = %+v, want zero local sims and one peer fetch", st)
	}
	if calls != 1 {
		t.Errorf("hook called %d times, want 1", calls)
	}
	if hits := b.Stats().PeerHits; hits != 1 {
		t.Errorf("engine peer hits = %d, want 1", hits)
	}

	// The fetched record is now resident: the next lookup is a plain memo
	// hit, not another network round trip.
	_, st, err = b.Simulate(context.Background(), cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoHits != 1 || calls != 1 {
		t.Errorf("second lookup: stats %+v with %d hook calls, want a local memo hit", st, calls)
	}
}

func TestPeerFetchMissFallsBackToLocalSim(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	eng.SetPeerFetch(func(context.Context, string, string) (SimRecord, bool) {
		calls++
		return SimRecord{}, false
	})
	pl, op, p := memoPoint(t)
	rec, st, err := eng.Simulate(context.Background(), cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || st.Sims != 1 || st.PeerFetches != 0 {
		t.Errorf("miss fallback: %d hook calls, stats %+v; want one consult then a local sim", calls, st)
	}
	if rec.PeakC <= 0 {
		t.Errorf("fallback record = %+v, want a completed simulation", rec)
	}
	if hits := eng.Stats().PeerHits; hits != 0 {
		t.Errorf("peer hits = %d after a miss, want 0", hits)
	}
}

func TestSetPeerFetchNilIsNoop(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPeerFetch(nil) // must not install a nil hook (or panic later)
	pl, op, p := memoPoint(t)
	if _, st, err := eng.Simulate(context.Background(), cfg.Benchmark, pl, op, p); err != nil || st.Sims != 1 {
		t.Fatalf("simulate after nil hook: stats %+v, err %v", st, err)
	}
}

// TestEvictCompletedKeepsInFlight fills one shard with completed entries
// plus one in-flight entry and evicts: the in-flight entry (whose waiters
// hold references) survives, every completed entry goes, and the hash index
// keeps exactly the keys still resident, so a peer fetch never resolves a
// hash to an evicted key.
func TestEvictCompletedKeepsInFlight(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, _ := memoPoint(t)
	keyAt := func(cores int) engineKey {
		return engineKey{bench: benchKeyOf(cfg.Benchmark), ek: evalKey{pl: keyOf(pl), fIdx: 2, cores: cores}}
	}
	sh := &eng.shards[0]
	sh.mu.Lock()
	const completed = 8
	for c := 1; c <= completed; c++ {
		k := keyAt(c)
		ent := &simEntry{done: make(chan struct{})}
		close(ent.done)
		sh.sims[k] = ent
		sh.hashes[memoKeyHash(k)] = k
	}
	inflight := keyAt(completed + 1)
	ent := &simEntry{done: make(chan struct{})}
	sh.sims[inflight] = ent
	sh.hashes[memoKeyHash(inflight)] = inflight
	eng.evictCompletedLocked(sh)
	sims := len(sh.sims)
	kept, resident := sh.sims[inflight]
	hashes := make(map[string]engineKey, len(sh.hashes))
	for h, k := range sh.hashes {
		hashes[h] = k
	}
	sh.mu.Unlock()
	close(ent.done)

	if sims != 1 || !resident || kept != ent {
		t.Fatalf("after eviction the shard holds %d entries (in-flight resident: %v), want only the in-flight one", sims, resident)
	}
	if len(hashes) != 1 || hashes[memoKeyHash(inflight)] != inflight {
		t.Fatalf("hash index = %v, want only the in-flight key", hashes)
	}
	if _, ok := eng.MemoFetch(memoKeyHash(keyAt(1))); ok {
		t.Error("MemoFetch answered an evicted key")
	}
}

// TestCanceledOwnerRetriedByLiveWaiter cancels the goroutine that owns an
// in-flight simulation while it is parked in the peer-fetch hook. The
// failure is caller-specific, so a live waiter that joined the computation
// must retry, compute the record itself, and get exactly what the
// unmemoized reference simulation produces.
func TestCanceledOwnerRetriedByLiveWaiter(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, op, p := memoPoint(t)
	parked := make(chan struct{})
	var calls atomic.Int32
	eng.SetPeerFetch(func(ctx context.Context, _, _ string) (SimRecord, bool) {
		if calls.Add(1) == 1 {
			close(parked) // the owner waits here until it is canceled
			<-ctx.Done()
		}
		return SimRecord{}, false
	})

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := eng.Simulate(ownerCtx, cfg.Benchmark, pl, op, p)
		ownerErr <- err
	}()
	<-parked

	type result struct {
		rec SimRecord
		st  EvalStats
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		rec, st, err := eng.Simulate(context.Background(), cfg.Benchmark, pl, op, p)
		waiter <- result{rec, st, err}
	}()
	// Cancel the owner only once the waiter has joined its computation.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().DedupWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the in-flight simulation")
		}
		time.Sleep(time.Millisecond)
	}
	cancelOwner()

	if err := <-ownerErr; !ctxErrLike(err) {
		t.Fatalf("owner error = %v, want a cancellation", err)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("live waiter failed after the owner was canceled: %v", got.err)
	}
	if got.st.DedupWaits != 1 || got.st.Sims != 1 {
		t.Errorf("waiter stats %+v, want one dedup wait and one fresh simulation", got.st)
	}
	want, err := ReferenceSimulate(cfg, cfg.Benchmark, pl, op, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.rec != want {
		t.Fatalf("retried record %+v != reference %+v", got.rec, want)
	}
}
