package org

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

// plKey identifies a placement geometry on the 0.5 mm grid.
type plKey struct {
	n               int
	edge2, s12, s22 int // edge, s1, s2 in half-millimeters
}

func keyOf(pl floorplan.Placement) plKey {
	if pl.Is2D() {
		return plKey{n: 1}
	}
	return plKey{
		n:     pl.NumChiplets(),
		edge2: int(math.Round(pl.W * 2)),
		s12:   int(math.Round(pl.S1 * 2)),
		s22:   int(math.Round(pl.S2 * 2)),
	}
}

// evalKey identifies one peak-temperature evaluation.
type evalKey struct {
	pl    plKey
	fIdx  int
	cores int
}

// Searcher runs peak-temperature evaluations against an Engine — the
// sharded, singleflight-deduplicated simulation memo — and exposes the
// greedy, exhaustive, and annealing placement searches on top of it.
//
// Concurrency contract: the Engine underneath is safe for unbounded
// concurrent use, and so are the Searcher's evaluation methods (PeakC,
// PeakCWith, Feasible) and read-only accessors. The high-level searches
// (Optimize, FindPlacement, Baseline, ...) may each be called from any
// goroutine and internally fan out across Config.SearchWorkers; running two high-level searches on one Searcher at the
// same time is also safe, though per-search counters then interleave.
// WithContext must be called before evaluations begin (it is not
// synchronized with in-flight calls).
//
// Determinism contract: for a fixed Config (seed included), every search
// result is bit-identical regardless of SearchWorkers or engine sharing —
// evaluation values are pure functions
// of their key (see Engine), restart RNG streams derive from the root seed
// and the restart coordinates rather than a shared sequence, and winners
// are selected by restart index. Only the effort counters (ThermalSims,
// SurrogateHits, CGIterations, engine hit/dedup tallies) may vary with
// parallelism, because parallel restarts can evaluate points a serial run
// never reaches.
//
// Long searches are cancelled cooperatively through the context installed
// with WithContext: every peak-temperature evaluation checks it, and the
// cancellation propagates into the CG iterations of in-flight thermal
// solves.
type Searcher struct {
	cfg   Config
	ctx   context.Context
	eng   *Engine
	audit *AuditLog // nil unless WithAudit installed one

	// Per-search effort counters (atomic: evaluations may run concurrently).
	thermalSims      atomic.Int64
	scalarHits       atomic.Int64
	spatialHits      atomic.Int64
	cgIterations     atomic.Int64
	engineHits       atomic.Int64
	engineDedupWaits atomic.Int64

	baseMu       sync.Mutex
	baseline     *Baseline
	baselineErr  error
	baselineDone bool
}

// NewSearcher validates the configuration and prepares a searcher with its
// own private evaluation engine.
func NewSearcher(cfg Config) (*Searcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Searcher{cfg: cfg, ctx: context.Background(), eng: eng}, nil
}

// NewSearcherWithEngine prepares a searcher backed by a shared engine (the
// chipletd process-wide memo tier). The engine's physics fingerprint must
// match the configuration's: a mismatch would silently evaluate on the
// wrong substrate, so it is an error.
func NewSearcherWithEngine(cfg Config, eng *Engine) (*Searcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return NewSearcher(cfg)
	}
	if fp := physFingerprint(cfg); fp != eng.Fingerprint() {
		return nil, fmt.Errorf("org: engine fingerprint mismatch: searcher config evaluates on a different physics substrate than the shared engine")
	}
	return &Searcher{cfg: cfg, ctx: context.Background(), eng: eng}, nil
}

// WithContext installs a cancellation context and returns the receiver for
// chaining. Every subsequent peak-temperature evaluation (and hence every
// search built on them) checks the context and aborts with its error once
// it is done; in-flight CG solves abort mid-iteration. Must be called
// before the search starts.
func (s *Searcher) WithContext(ctx context.Context) *Searcher {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	return s
}

// WithAudit installs a convergence audit log and returns the receiver for
// chaining: every subsequent evaluation and search step records an event.
// A nil log disables recording (the default). Must be called before the
// search starts (it is not synchronized with in-flight calls).
func (s *Searcher) WithAudit(l *AuditLog) *Searcher {
	s.audit = l
	return s
}

// Audit returns the installed audit log (nil when auditing is disabled).
func (s *Searcher) Audit() *AuditLog { return s.audit }

// Config returns the searcher's configuration.
func (s *Searcher) Config() Config { return s.cfg }

// Engine returns the evaluation engine backing this searcher.
func (s *Searcher) Engine() *Engine { return s.eng }

// ThermalSims returns the number of full thermal simulations this
// searcher's evaluations computed so far (engine memo hits excluded).
func (s *Searcher) ThermalSims() int { return int(s.thermalSims.Load()) }

// SurrogateHits returns the number of evaluations any surrogate tier
// decided (scalar + spatial).
func (s *Searcher) SurrogateHits() int { return s.ScalarSurrogateHits() + s.SpatialSurrogateHits() }

// ScalarSurrogateHits returns the number of evaluations the scalar
// surrogate decided.
func (s *Searcher) ScalarSurrogateHits() int { return int(s.scalarHits.Load()) }

// SpatialSurrogateHits returns the number of evaluations the spatial
// compact model decided.
func (s *Searcher) SpatialSurrogateHits() int { return int(s.spatialHits.Load()) }

// CGIterations returns the total conjugate-gradient iterations spent in
// full thermal simulations computed by this searcher (the dominant CPU
// cost, exported for the /metrics endpoint).
func (s *Searcher) CGIterations() int64 { return s.cgIterations.Load() }

// EngineHits returns how many of this searcher's simulation lookups were
// answered from the engine memo.
func (s *Searcher) EngineHits() int64 { return s.engineHits.Load() }

// EngineDedupWaits returns how many of this searcher's simulation lookups
// joined another caller's in-flight computation.
func (s *Searcher) EngineDedupWaits() int64 { return s.engineDedupWaits.Load() }

// record folds one evaluation's engine stats into the per-search counters.
func (s *Searcher) record(st EvalStats) {
	if st.Sims > 0 {
		s.thermalSims.Add(int64(st.Sims))
		s.cgIterations.Add(int64(st.CGIterations))
	}
	switch st.Fidelity {
	case FidelityScalar:
		s.scalarHits.Add(1)
	case FidelitySpatial:
		s.spatialHits.Add(1)
	}
	if st.MemoHits > 0 {
		s.engineHits.Add(int64(st.MemoHits))
	}
	if st.DedupWaits > 0 {
		s.engineDedupWaits.Add(int64(st.DedupWaits))
	}
}

// fIdxOf maps an operating point to its index in the frequency set.
func fIdxOf(op power.DVFSPoint) int {
	for i, p := range power.FrequencySet {
		if p == op {
			return i
		}
	}
	return -1
}

// PeakC returns the peak temperature of a placement at an operating point
// with p active cores, using the engine memo and, when it is decisive, the
// calibrated scalar surrogate.
func (s *Searcher) PeakC(pl floorplan.Placement, op power.DVFSPoint, p int) (float64, error) {
	return s.peakCtx(s.ctx, s.cfg.Benchmark, pl, op, p)
}

// PeakCWith is PeakC for an explicit benchmark, letting one searcher (and
// its engine memo) evaluate several applications on shared placements —
// the multi-application flow.
func (s *Searcher) PeakCWith(b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int) (float64, error) {
	return s.peakCtx(s.ctx, b, pl, op, p)
}

func (s *Searcher) peakCtx(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int) (float64, error) {
	peak, st, err := s.eng.PeakCPolicy(ctx, b, pl, op, p, s.cfg.evalPolicy())
	s.record(st)
	s.audit.evalEvent(pl, op, p, peak, st, err)
	return peak, err
}

// Feasible reports whether the placement meets Eq. (6) at (op, p).
func (s *Searcher) Feasible(pl floorplan.Placement, op power.DVFSPoint, p int) (bool, float64, error) {
	peak, err := s.PeakC(pl, op, p)
	if err != nil {
		return false, 0, err
	}
	return peak <= s.cfg.ThresholdC, peak, nil
}

func (s *Searcher) feasibleCtx(ctx context.Context, pl floorplan.Placement, op power.DVFSPoint, p int) (bool, float64, error) {
	peak, err := s.peakCtx(ctx, s.cfg.Benchmark, pl, op, p)
	if err != nil {
		return false, 0, err
	}
	return peak <= s.cfg.ThresholdC, peak, nil
}

// Baseline computes (and memoizes) the 2D single-chip reference: the
// maximum IPS over all 40 (f, p) pairs whose simulated peak temperature
// meets the threshold. Safe for concurrent callers; the first computes.
func (s *Searcher) Baseline() (Baseline, error) {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	if s.baselineDone {
		return derefBaseline(s.baseline), s.baselineErr
	}
	s.baselineDone = true
	ctx, sp := obs.Start(s.ctx, "org.baseline")
	defer sp.End()
	chip := floorplan.SingleChip()
	var best Baseline
	best.CostUSD = s.cfg.CostParams.PlacementCost(chip)
	for _, op := range power.FrequencySet {
		for _, p := range power.ActiveCoreCounts {
			ok, peak, err := s.feasibleCtx(ctx, chip, op, p)
			if err != nil {
				s.baselineErr = err
				return Baseline{}, err
			}
			if !ok {
				continue
			}
			ips := s.cfg.Benchmark.IPS(op, p)
			if !best.Feasible || ips > best.BestIPS {
				best.Feasible = true
				best.BestIPS = ips
				best.Op = op
				best.ActiveCores = p
				best.PeakC = peak
			}
		}
	}
	sp.SetAttr("feasible", best.Feasible)
	sp.SetAttr("best_gips", best.BestIPS)
	s.baseline = &best
	return best, nil
}

func derefBaseline(b *Baseline) Baseline {
	if b == nil {
		return Baseline{}
	}
	return *b
}
