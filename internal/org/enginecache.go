package org

import (
	"sync"
)

// EngineCache is a small, bounded registry of evaluation engines keyed by
// physics fingerprint, so a long-lived process (chipletd) can back every
// request that shares a physics substrate — whatever its search-level knobs
// — with one process-wide engine and its memo. Eviction is LRU by Get
// order; evicting an engine only drops its memo (in-flight evaluations keep
// their references and finish normally).
type EngineCache struct {
	mu      sync.Mutex
	max     int
	engines map[string]*Engine
	order   []string // LRU: order[0] is the least recently used fingerprint
}

// NewEngineCache builds a cache bounded to max engines (min 1).
func NewEngineCache(max int) *EngineCache {
	if max < 1 {
		max = 1
	}
	return &EngineCache{max: max, engines: make(map[string]*Engine)}
}

// Get returns the engine for cfg's physics fingerprint, constructing (and
// caching) one on first use. The configuration must already be validated.
func (c *EngineCache) Get(cfg Config) (*Engine, error) {
	fp := physFingerprint(cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.engines[fp]; ok {
		c.touch(fp)
		return e, nil
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if len(c.engines) >= c.max {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.engines, evict)
	}
	c.engines[fp] = e
	c.order = append(c.order, fp)
	return e, nil
}

// Lookup returns the resident engine whose fingerprint hash matches, or
// nil. This is the peer-fetch endpoint's entry point: peers address engines
// by FingerprintHash, never by the raw fingerprint. A hit counts as use for
// LRU purposes — an engine serving peers is an engine worth keeping.
func (c *EngineCache) Lookup(fpHash string) *Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	for fp, e := range c.engines {
		if e.FingerprintHash() == fpHash {
			c.touch(fp)
			return e
		}
	}
	return nil
}

// Resident snapshots the resident engines in LRU order (least recently
// used first), for debug/ownership listings.
func (c *EngineCache) Resident() []*Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Engine, 0, len(c.engines))
	for _, fp := range c.order {
		out = append(out, c.engines[fp])
	}
	return out
}

// touch moves fp to the most-recently-used position (c.mu held).
func (c *EngineCache) touch(fp string) {
	for i, f := range c.order {
		if f == fp {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// Len returns the number of resident engines.
func (c *EngineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.engines)
}

// Stats sums telemetry across all resident engines. Counters from evicted
// engines are lost with them; the aggregate is therefore a lower bound over
// the process lifetime, which is the honest reading for memo telemetry (an
// evicted memo's hits are gone too).
func (c *EngineCache) Stats() EngineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out EngineStats
	for _, e := range c.engines {
		s := e.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.DedupWaits += s.DedupWaits
		out.PeerHits += s.PeerHits
		out.ThermalSims += s.ThermalSims
		out.SurrogateHits += s.SurrogateHits
		out.ScalarHits += s.ScalarHits
		out.SpatialHits += s.SpatialHits
		out.CGIterations += s.CGIterations
		out.ModelReuses += s.ModelReuses
		out.ModelEvictions += s.ModelEvictions
		out.Calibrations += s.Calibrations
		if s.CalWorstErrC > out.CalWorstErrC {
			out.CalWorstErrC = s.CalWorstErrC
		}
	}
	return out
}

// MemoLen sums resident completed simulations across all engines.
func (c *EngineCache) MemoLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.engines {
		n += e.MemoLen()
	}
	return n
}

// ModelBytes sums the retained thermal models' memory across all resident
// engines (see Engine.ModelBytes).
func (c *EngineCache) ModelBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.engines {
		n += e.ModelBytes()
	}
	return n
}
