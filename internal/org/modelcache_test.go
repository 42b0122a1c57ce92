package org

import (
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/thermal"
)

// testPlacement builds one valid 4-chiplet placement for engine-level tests.
func testPlacement(t testing.TB) floorplan.Placement {
	t.Helper()
	pl, err := floorplan.PaperOrg(4, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestModelCacheReuse pins the model cache's contract: same geometry key
// returns the identical *thermal.Model, a different key assembles fresh,
// and a full cache evicts its least recently used entry.
func TestModelCacheReuse(t *testing.T) {
	cfg := fastConfig(t, "cholesky")
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.models = newModelCache(2)

	pl4 := testPlacement(t)
	k4 := keyOf(pl4)
	m1, reused, err := e.model(pl4, k4)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first build reported as a reuse")
	}
	m2, reused, err := e.model(pl4, k4)
	if err != nil {
		t.Fatal(err)
	}
	if !reused || m2 != m1 {
		t.Fatalf("second lookup: reused=%v, same model=%v; want a cache hit returning the identical model", reused, m2 == m1)
	}

	// Two more geometries overflow the 2-slot ring and evict pl4.
	plA, err := floorplan.PaperOrg(4, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	plB, err := floorplan.PaperOrg(16, 0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, reused, err = e.model(plA, keyOf(plA)); err != nil || reused {
		t.Fatalf("new geometry A: reused=%v err=%v", reused, err)
	}
	if _, reused, err = e.model(plB, keyOf(plB)); err != nil || reused {
		t.Fatalf("new geometry B: reused=%v err=%v", reused, err)
	}
	m3, reused, err := e.model(pl4, k4)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("evicted geometry still reported as resident")
	}
	if m3 == m1 {
		t.Fatal("evicted geometry returned the stale model pointer")
	}
}

// TestModelCacheHitSurvivesLaterPuts pins least-recently-used eviction: a
// model that keeps being hit stays resident through as many later puts of
// one-off geometries as the cache has slots. A FIFO ring would drop it at
// the capacity-th put whatever its hits.
func TestModelCacheHitSurvivesLaterPuts(t *testing.T) {
	c := newModelCache(defaultModelCache)
	hot := plKey{n: 1}
	hotModel := new(thermal.Model)
	c.put(hot, hotModel)
	for i := 1; i <= defaultModelCache; i++ {
		if got := c.get(hot); got != hotModel {
			t.Fatalf("before put %d: hot model not resident (got %p)", i, got)
		}
		c.put(plKey{n: 4, edge2: i}, new(thermal.Model))
	}
	if got := c.get(hot); got != hotModel {
		t.Fatalf("hot model evicted by %d later puts", defaultModelCache)
	}
	if got := c.evicted(); got != 1 {
		t.Errorf("evictions = %d, want 1 (the least recently used one-off geometry)", got)
	}
	if c.get(plKey{n: 4, edge2: 1}) != nil {
		t.Error("least recently used geometry still resident")
	}
	if c.get(plKey{n: 4, edge2: 2}) == nil {
		t.Error("second-oldest geometry evicted instead of the oldest")
	}
}
