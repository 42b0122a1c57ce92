package org

import (
	"sync"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/thermal"
)

// defaultModelCache is the number of assembled thermal models the engine
// retains, keyed by placement geometry. Every full simulation previously
// paid model assembly again — cheap for IC(0) (~2 ms at 32x32) but the
// dominant cost of the multigrid path, whose hierarchy setup (Galerkin
// coarse operators, coarsest-level Cholesky) runs ~7x the base assembly.
// Reuse hits whenever one placement is simulated at several operating
// points close together: the DoE calibration (three ops per geometry),
// corpus-style repeated evaluations, and the surrogate escalation pattern.
// Measured on the multi-start search itself, recurrence is inherently
// sparse (~7% of sims — restarts at different operating points walk
// largely disjoint spacing points, so raising the capacity does not raise
// the hit count), which keeps the default small; memory bounds it from
// the other side: Model.Bytes() is 0.4 MB at 16x16 (IC(0)), 9.6 MB at
// 64x64 and 43 MB at 128x128 (multigrid), so a full cache of 128x128
// models holds about 0.7 GB (exported as chipletd_model_bytes, with
// evictions as chipletd_model_evictions_total).
const defaultModelCache = 16

// modelCache is a bounded LRU set of assembled thermal models keyed by
// exact placement geometry: a hit refreshes its entry's recency, and a
// miss at capacity evicts the least recently used entry, so a placement
// that keeps recurring (the single-chip baseline, say) stays resident
// however many one-off geometries pass through. Reuse is bit-exact: a
// Model is immutable after assembly and fully determined by (stack,
// thermal config), its pooled workspaces isolate concurrent solves (the
// TestConcurrentSolves contract), and a freshly assembled model produces
// the identical factors and hierarchy. The cache therefore runs unconditionally — it cannot
// change any result, only skip redundant assembly.
//
// Two goroutines missing on the same key may both assemble; the duplicate
// build is wasted work, not a correctness problem, and the sim memo's
// singleflight already collapses identical evaluations upstream of here.
type modelCache struct {
	mu        sync.Mutex
	slots     []modelSlot
	tick      uint64 // recency clock: bumped by every get hit and put
	evictions int64  // retained models dropped to make room
}

// modelSlot is one retained model; lastUse is the tick of its latest hit
// or insertion, 0 while the slot is empty.
type modelSlot struct {
	lastUse uint64
	key     plKey
	m       *thermal.Model
}

// newModelCache builds a cache of the given capacity (nil when
// non-positive, which disables reuse).
func newModelCache(capacity int) *modelCache {
	if capacity <= 0 {
		return nil
	}
	return &modelCache{slots: make([]modelSlot, capacity)}
}

// get returns the retained model for key k, or nil. A hit marks the entry
// most recently used.
func (c *modelCache) get(k plKey) *thermal.Model {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.slots {
		if s := &c.slots[i]; s.lastUse != 0 && s.key == k {
			c.tick++
			s.lastUse = c.tick
			return s.m
		}
	}
	return nil
}

// put retains model m for key k in an empty slot, or in place of the least
// recently used entry when the cache is full. A concurrent duplicate of an
// already-retained key is left in place (first build wins, both are
// identical).
func (c *modelCache) put(k plKey, m *thermal.Model) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	victim := &c.slots[0]
	for i := range c.slots {
		s := &c.slots[i]
		if s.lastUse != 0 && s.key == k {
			return
		}
		if s.lastUse < victim.lastUse {
			victim = s
		}
	}
	if victim.lastUse != 0 {
		c.evictions++
	}
	c.tick++
	*victim = modelSlot{lastUse: c.tick, key: k, m: m}
}

// evicted returns how many retained models have been dropped to make room.
func (c *modelCache) evicted() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// bytes sums Model.Bytes() over the retained models.
func (c *modelCache) bytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.slots {
		if s := &c.slots[i]; s.lastUse != 0 {
			n += s.m.Bytes()
		}
	}
	return n
}

// ModelBytes reports the memory the engine's retained thermal models hold
// (see thermal.Model.Bytes).
func (e *Engine) ModelBytes() int { return e.models.bytes() }

// model returns the assembled thermal model for placement pl, reusing the
// cached one when its geometry key is resident and assembling (and
// retaining) it otherwise. The returned bool reports a cache hit.
func (e *Engine) model(pl floorplan.Placement, k plKey) (*thermal.Model, bool, error) {
	if m := e.models.get(k); m != nil {
		return m, true, nil
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return nil, false, err
	}
	m, err := thermal.NewModel(stack, e.phys.Thermal)
	if err != nil {
		return nil, false, err
	}
	e.models.put(k, m)
	return m, false, nil
}
