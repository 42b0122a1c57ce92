package org

import (
	"context"
	"math"
	"sync"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/power"
)

// sameResult compares everything the determinism contract covers: the
// decision outputs (feasibility, chosen organization, baseline, combos
// walked). The effort counters (ThermalSims, SurrogateHits) are explicitly
// excluded — parallel restarts may evaluate points a serial run never
// reaches, so only the *outcome* is pinned, not the work done.
func sameResult(t *testing.T, a, b Result, label string) {
	t.Helper()
	if a.Feasible != b.Feasible {
		t.Fatalf("%s: feasibility %v vs %v", label, a.Feasible, b.Feasible)
	}
	if a.Baseline != b.Baseline {
		t.Fatalf("%s: baseline %+v vs %+v", label, a.Baseline, b.Baseline)
	}
	if a.CombosTried != b.CombosTried {
		t.Fatalf("%s: combos tried %d vs %d", label, a.CombosTried, b.CombosTried)
	}
	ba, bb := a.Best, b.Best
	if ba.N != bb.N || ba.S1 != bb.S1 || ba.S2 != bb.S2 || ba.S3 != bb.S3 ||
		ba.InterposerMM != bb.InterposerMM || ba.Op != bb.Op ||
		ba.ActiveCores != bb.ActiveCores || ba.PeakC != bb.PeakC ||
		ba.IPS != bb.IPS || ba.CostUSD != bb.CostUSD ||
		ba.NormPerf != bb.NormPerf || ba.NormCost != bb.NormCost ||
		ba.ObjValue != bb.ObjValue {
		t.Fatalf("%s: best organization\n  %+v\nvs\n  %+v", label, ba, bb)
	}
}

// The headline golden test of the concurrent search: parallel multi-start
// greedy must return the bit-identical Result as the serial path for a
// fixed seed, at every worker count.
func TestParallelRestartsMatchSerial(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	serial, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		pc := cfg
		pc.SearchWorkers = workers
		s, err := NewSearcher(pc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Optimize()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameResult(t, want, got, "workers="+string(rune('0'+workers)))
	}
}

// Parallel FindPlacement must agree with serial on the found placement and
// peak for each individual (n, edge, f, p) query too, not just end to end.
func TestParallelFindPlacementMatchesSerial(t *testing.T) {
	cfg := fastConfig(t, "canneal")
	serial, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.SearchWorkers = 4
	ps, err := NewSearcher(par)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		edge float64
		fIdx int
		p    int
	}{
		{32, 0, 224}, {40, 2, 96}, {26, 1, 160}, {50, 0, 256},
	}
	for _, c := range cases {
		plS, peakS, foundS, err := serial.FindPlacement(16, c.edge, power.FrequencySet[c.fIdx], c.p)
		if err != nil {
			t.Fatal(err)
		}
		plP, peakP, foundP, err := ps.FindPlacement(16, c.edge, power.FrequencySet[c.fIdx], c.p)
		if err != nil {
			t.Fatal(err)
		}
		if foundS != foundP {
			t.Fatalf("edge=%g f=%d p=%d: found %v vs %v", c.edge, c.fIdx, c.p, foundS, foundP)
		}
		if foundS && (plS.S1 != plP.S1 || plS.S2 != plP.S2 || plS.S3 != plP.S3 ||
			plS.W != plP.W || math.Abs(peakS-peakP) > 0) {
			t.Fatalf("edge=%g f=%d p=%d: placement/peak disagreement: (%+v, %v) vs (%+v, %v)",
				c.edge, c.fIdx, c.p, plS, peakS, plP, peakP)
		}
	}
}

// Searchers sharing one engine (the chipletd arrangement) must still match
// the private-engine result, even when they run concurrently.
func TestSharedEngineSearchersMatchPrivate(t *testing.T) {
	cfg := fastConfig(t, "hpccg")
	private, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := private.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const searchers = 3
	results := make([]Result, searchers)
	errs := make([]error, searchers)
	var wg sync.WaitGroup
	for i := 0; i < searchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSearcherWithEngine(cfg, eng)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = s.Optimize()
		}(i)
	}
	wg.Wait()
	for i := 0; i < searchers; i++ {
		if errs[i] != nil {
			t.Fatalf("searcher %d: %v", i, errs[i])
		}
		sameResult(t, want, results[i], "shared-engine searcher")
	}
	st := eng.Stats()
	if st.Hits == 0 {
		t.Errorf("concurrent searchers over one engine recorded no memo hits: %+v", st)
	}
}

// Stress the singleflight memo from many goroutines: every caller must
// observe the identical value per key, the engine must record the expected
// hit/miss/dedup accounting, and the whole thing must be clean under -race.
func TestEngineConcurrentStress(t *testing.T) {
	cfg := fastConfig(t, "swaptions")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := floorplan.PaperOrgForInterposer(16, 34, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		fIdx int
		p    int
	}
	keys := []key{{0, 224}, {1, 160}, {2, 96}, {0, 256}, {3, 128}}
	const goroutines = 16
	got := make([][]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	ctx := context.Background()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]float64, len(keys))
			for rep := 0; rep < 3; rep++ {
				for i, k := range keys {
					peak, _, err := eng.PeakC(ctx, cfg.Benchmark, pl, power.FrequencySet[k.fIdx], k.p, cfg.ThresholdC, cfg.SurrogateMarginC)
					if err != nil {
						errs[g] = err
						return
					}
					if rep > 0 && peak != vals[i] {
						errs[g] = errDrift{rep: rep, i: i, a: vals[i], b: peak}
						return
					}
					vals[i] = peak
				}
			}
			got[g] = vals
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		for i := range keys {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d key %d: %v != %v", g, i, got[g][i], got[0][i])
			}
		}
	}
	st := eng.Stats()
	// 5 keys on one placement: at most one full sim per key plus the
	// canonical calibration sims; everything else must be hits or dedup
	// waits, never duplicate sims.
	if st.ThermalSims > int64(2*len(keys)) {
		t.Errorf("duplicate simulations under concurrency: %d sims for %d keys", st.ThermalSims, len(keys))
	}
	if st.Hits == 0 {
		t.Errorf("no memo hits under 16 goroutines x 3 reps: %+v", st)
	}
}

type errDrift struct {
	rep, i int
	a, b   float64
}

func (e errDrift) Error() string {
	return "memoized value drifted across repetitions"
}

// A canceled waiter must not poison the memo for live callers: errors are
// never memoized, and waiters holding a live context retry after observing
// a cancellation-shaped failure.
func TestEngineCancellationDoesNotPoison(t *testing.T) {
	cfg := fastConfig(t, "canneal")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := floorplan.PaperOrgForInterposer(16, 30, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Simulate(canceled, cfg.Benchmark, pl, power.FrequencySet[0], 192); err == nil {
		t.Fatal("expected error from canceled context")
	}
	rec, st, err := eng.Simulate(context.Background(), cfg.Benchmark, pl, power.FrequencySet[0], 192)
	if err != nil {
		t.Fatalf("live caller failed after canceled caller: %v", err)
	}
	if rec.PeakC <= cfg.Thermal.AmbientC {
		t.Fatalf("implausible peak %v", rec.PeakC)
	}
	if st.Sims != 1 {
		t.Fatalf("live caller should have computed the sim itself, stats %+v", st)
	}
}

// Engine sharing is gated on the physics fingerprint: a searcher whose
// configuration evaluates on a different substrate must be rejected.
func TestSearcherEngineFingerprintMismatch(t *testing.T) {
	cfg := fastConfig(t, "canneal")
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Thermal.Nx, other.Thermal.Ny = 32, 32
	if _, err := NewSearcherWithEngine(other, eng); err == nil {
		t.Fatal("expected fingerprint mismatch error")
	}
	// Same physics, different search knobs: shares fine.
	knobs := cfg
	knobs.Starts = 3
	knobs.Seed = 99
	knobs.Objective = Objective{Alpha: 0, Beta: 1}
	if _, err := NewSearcherWithEngine(knobs, eng); err != nil {
		t.Fatalf("search-level knobs must not fork engine identity: %v", err)
	}
}

func TestEngineCacheSharesAndEvicts(t *testing.T) {
	cache := NewEngineCache(2)
	cfgA := fastConfig(t, "canneal")
	cfgB := fastConfig(t, "cholesky") // same physics, different benchmark
	cfgC := fastConfig(t, "canneal")
	cfgC.Thermal.Nx, cfgC.Thermal.Ny = 8, 8
	cfgD := fastConfig(t, "canneal")
	cfgD.Thermal.AmbientC = 50

	a, err := cache.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Get(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("benchmark choice must not fork engine identity")
	}
	if _, err := cache.Get(cfgC); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("expected 2 resident engines, got %d", cache.Len())
	}
	// Touch A so C is the LRU victim when D arrives.
	if _, err := cache.Get(cfgA); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(cfgD); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("expected eviction to hold the cache at 2, got %d", cache.Len())
	}
	a2, err := cache.Get(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Fatal("recently used engine was evicted")
	}
	d, err := cache.Get(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	// Peers address engines by fingerprint hash; a lookup hit counts as use.
	if got := cache.Lookup(a.FingerprintHash()); got != a {
		t.Fatalf("Lookup(A's hash) = %p, want %p", got, a)
	}
	if got := cache.Lookup("no-such-fingerprint"); got != nil {
		t.Fatalf("Lookup of an unknown hash = %p, want nil", got)
	}
	if res := cache.Resident(); len(res) != 2 || res[0] != d || res[1] != a {
		t.Fatalf("Resident() = %v, want [D A] (least recently used first)", res)
	}
	pl, err := floorplan.PaperOrgForInterposer(16, 30, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Simulate(context.Background(), cfgA.Benchmark, pl, power.FrequencySet[0], 192); err != nil {
		t.Fatal(err)
	}
	if n := cache.MemoLen(); n != 1 {
		t.Fatalf("MemoLen() = %d, want the one resident simulation", n)
	}
	if st := cache.Stats(); st.ThermalSims != 1 || st.Misses != 1 {
		t.Fatalf("Stats() = %+v, want one miss and one thermal simulation", st)
	}
}
