package org

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/noc"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

// Engine is the concurrency-safe evaluation core under every search: a
// sharded, mutex-striped memo of full leakage-coupled thermal simulations
// with singleflight deduplication, so concurrent greedy restarts, multi-app
// mixes, and concurrent chipletd requests evaluating the same
// (benchmark, placement, f, p) share one simulation instead of repeating it.
//
// Every memoized value is a pure function of its key and the engine's
// physics profile — never of arrival order. Two rules make that hold under
// arbitrary concurrency:
//
//   - full simulations are deterministic, so the singleflight winner's
//     result equals what any loser would have computed;
//   - the scalar surrogate is calibrated at a canonical DVFS point
//     (FrequencySet[0]) rather than at whichever point happened to be
//     simulated first, so the effective thermal resistance rEff(b, pl, p) —
//     and hence every surrogate estimate — is order-independent.
//
// This purity is the determinism contract the parallel multi-start search
// relies on: parallel and serial searches observe bit-identical evaluation
// values regardless of interleaving.
//
// An Engine is safe for concurrent use by any number of goroutines. It is
// keyed by a physics fingerprint (Fingerprint); searchers may share an
// engine only when their configurations agree on that fingerprint.
type Engine struct {
	phys   physProfile
	fp     string
	fpHash string // content address of fp (sharding identity; see memo.go)

	// peerFetch, when installed, is consulted on every memo miss before a
	// local simulation runs (see memo.go). peerHits counts misses answered
	// by a peer's memo instead of a local simulation.
	peerFetch atomic.Pointer[PeerFetchFunc]
	peerHits  atomic.Int64

	shards [engineShards]engineShard

	// Telemetry, all atomic. hits/misses/dedupWaits describe the sim memo
	// (the expensive tier); thermalSims/surrogateEvals/spatialEvals/
	// cgIterations mirror the Searcher's classic counters process-wide.
	hits           atomic.Int64
	misses         atomic.Int64
	dedupWaits     atomic.Int64
	thermalSims    atomic.Int64
	surrogateEvals atomic.Int64 // evaluations decided by the scalar tier
	spatialEvals   atomic.Int64 // evaluations decided by the spatial tier
	cgIterations   atomic.Int64
	// calibrations counts completed spatial calibrations; calWorstErrBits
	// holds the float64 bits of the worst calibration error bound seen
	// (monotonic max), exported as a gauge by chipletd.
	calibrations    atomic.Int64
	calWorstErrBits atomic.Uint64

	// models retains assembled thermal models by placement geometry so the
	// many evaluations of one placement share its assembly (always on:
	// reuse is bit-exact; see modelcache.go). modelReuses counts sims that
	// skipped assembly.
	models      *modelCache
	modelReuses atomic.Int64

	// spatials memoizes the per-benchmark spatial surrogate calibrations
	// (singleflight; see spatial.go).
	spatialMu sync.Mutex
	spatials  map[benchKey]*calEntry
}

const (
	engineShards = 64
	// engineShardCap bounds each shard's completed-entry count so a
	// long-lived process-wide engine cannot grow without bound; on overflow
	// the shard drops its completed entries (in-flight singleflight entries
	// survive — their waiters hold direct references). Purity makes
	// eviction safe: a re-computed value is bit-identical.
	engineShardCap = 4096
)

// canonicalFIdx is the DVFS point at which the surrogate's effective
// thermal resistance is calibrated for every (benchmark, placement, p).
// Fixing it (rather than using the first-simulated point) keeps surrogate
// estimates order-independent under concurrency.
const canonicalFIdx = 0

// physProfile is the physics substrate an engine evaluates on: every
// configuration input that changes a simulation result. Search-level knobs
// (seed, starts, workers, objective, cost, interposer sweep) are absent by
// construction, and the benchmark is a per-call parameter.
type physProfile struct {
	Thermal thermal.Config
	Leakage power.LeakageModel
	SimOpts power.SimOptions
	Link    noc.LinkParams
	Router  noc.RouterParams
}

// benchKey is the thermally relevant identity of a benchmark: only name,
// per-core reference power, and NoC traffic enter a simulation.
type benchKey struct {
	name     string
	refCoreW float64
	traffic  float64
}

func benchKeyOf(b perf.Benchmark) benchKey {
	return benchKey{name: b.Name, refCoreW: b.RefCoreW, traffic: b.Traffic}
}

// engineKey identifies one full simulation.
type engineKey struct {
	bench benchKey
	ek    evalKey
}

// SimRecord is the memoized outcome of one full leakage-coupled simulation
// — the scalar results a search or a solve endpoint needs, without the
// per-node temperature field (which would pin large arrays in the memo).
type SimRecord struct {
	PeakC             float64
	TotalPowerW       float64
	MeshPowerW        float64
	LeakageIterations int
	CGIterations      int
	// Preconditioner names the CG preconditioner the simulation's model
	// ran (thermal.Model.PreconditionerName).
	Preconditioner string
}

// newSimRecord condenses a leakage-loop result on model m into its record.
func newSimRecord(res *power.SimResult, nocW float64, m *thermal.Model) SimRecord {
	return SimRecord{
		PeakC:             res.PeakC,
		TotalPowerW:       res.TotalPowerW,
		MeshPowerW:        nocW,
		LeakageIterations: res.Iterations,
		CGIterations:      res.CGIterations,
		Preconditioner:    m.PreconditionerName(),
	}
}

// simEntry is a singleflight slot: the first goroutine to claim a key
// computes; later arrivals wait on done and read the shared record.
type simEntry struct {
	done chan struct{}
	rec  SimRecord
	err  error
}

type engineShard struct {
	mu   sync.Mutex
	sims map[engineKey]*simEntry
	nocs map[engineKey]float64
	// hashes indexes successfully completed entries by their canonical
	// content-address hash, so peers can fetch by hash without knowing the
	// engineKey encoding (see memo.go).
	hashes map[string]engineKey
}

// EvalStats reports what one evaluation call did, so callers (Searcher,
// chipletd handlers) can attribute engine work to their own request.
type EvalStats struct {
	// Sims is the number of full simulations this call computed itself.
	Sims int
	// CGIterations and LeakageIterations sum over those simulations.
	CGIterations      int
	LeakageIterations int
	// MemoHits counts sim-memo lookups answered from a completed entry.
	MemoHits int
	// DedupWaits counts lookups that joined an in-flight computation.
	DedupWaits int
	// PeerFetches counts memo misses answered by a peer node's memo over
	// the sharding layer instead of a local simulation.
	PeerFetches int
	// Fidelity reports which tier of the evaluation ladder decided the
	// call: FidelityFull (the zero value) when the memoized full
	// simulation answered, FidelityScalar or FidelitySpatial when a
	// surrogate decided without simulating the requested point.
	Fidelity Fidelity
	// Escalation audit, filled by PeakCPolicy: which surrogate tiers were
	// consulted, what they predicted, and why the ladder stopped where it
	// did (the audit trail's per-decision record).
	SpatialConsulted bool
	SpatialPredC     float64 // spatial tier's predicted peak (°C)
	SpatialBoundC    float64 // calibration worst-case error bound (°C)
	SpatialMarginC   float64 // |prediction - threshold| (°C)
	ScalarConsulted  bool
	ScalarEstC       float64 // scalar tier's estimate (°C)
	// Reason explains the deciding tier ("spatial_decisive",
	// "scalar_decisive") or, for full simulations, the comma-joined chain
	// of tiers that declined ("spatial_within_bound,scalar_within_margin",
	// "canonical_point", "surrogates_disabled").
	Reason string
}

func (s *EvalStats) add(o EvalStats) {
	s.Sims += o.Sims
	s.CGIterations += o.CGIterations
	s.LeakageIterations += o.LeakageIterations
	s.MemoHits += o.MemoHits
	s.DedupWaits += o.DedupWaits
	s.PeerFetches += o.PeerFetches
}

// EngineStats is an engine's cumulative telemetry snapshot. SurrogateHits
// remains the total across surrogate tiers for backward compatibility;
// ScalarHits and SpatialHits break it down by fidelity.
type EngineStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	DedupWaits int64 `json:"dedup_waits"`
	// PeerHits counts memo misses answered by a peer node's memo (the
	// sharding layer's fetch hook) instead of a local simulation.
	PeerHits      int64 `json:"peer_hits"`
	ThermalSims   int64 `json:"thermal_sims"`
	SurrogateHits int64 `json:"surrogate_hits"`
	ScalarHits    int64 `json:"scalar_hits"`
	SpatialHits   int64 `json:"spatial_hits"`
	CGIterations  int64 `json:"cg_iterations"`
	// ModelReuses counts full simulations that reused a cached thermal
	// model instead of reassembling it; ModelEvictions counts retained
	// models the cache dropped to make room for new ones (see
	// modelcache.go).
	ModelReuses    int64 `json:"model_reuses"`
	ModelEvictions int64 `json:"model_evictions"`
	// Calibrations counts completed spatial-surrogate calibrations;
	// CalWorstErrC is the worst calibration error bound (°C) across them,
	// 0 until the first calibration completes.
	Calibrations int64   `json:"calibrations"`
	CalWorstErrC float64 `json:"cal_worst_err_c"`
}

// NewEngine builds an evaluation engine from a configuration's physics
// fields.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Thermal.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Leakage.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Router.Validate(); err != nil {
		return nil, err
	}
	phys := physProfile{
		Thermal: cfg.Thermal,
		Leakage: cfg.Leakage,
		SimOpts: cfg.SimOpts,
		Link:    cfg.Link,
		Router:  cfg.Router,
	}
	fp := physFingerprint(cfg)
	e := &Engine{phys: phys, fp: fp, fpHash: hashFingerprint(fp), spatials: make(map[benchKey]*calEntry)}
	e.models = newModelCache(defaultModelCache)
	for i := range e.shards {
		e.shards[i].sims = make(map[engineKey]*simEntry)
		e.shards[i].nocs = make(map[engineKey]float64)
		e.shards[i].hashes = make(map[string]engineKey)
	}
	return e, nil
}

// physFingerprint canonicalizes the physics substrate of a configuration.
func physFingerprint(cfg Config) string {
	return fmt.Sprintf("%#v|%#v|%#v|%#v|%#v", cfg.Thermal, cfg.Leakage, cfg.SimOpts, cfg.Link, cfg.Router)
}

// Fingerprint identifies the engine's physics substrate; a Searcher may
// share this engine only when its configuration fingerprints identically.
func (e *Engine) Fingerprint() string { return e.fp }

// Stats returns the engine's cumulative telemetry.
func (e *Engine) Stats() EngineStats {
	scalar := e.surrogateEvals.Load()
	spatial := e.spatialEvals.Load()
	return EngineStats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		DedupWaits:     e.dedupWaits.Load(),
		PeerHits:       e.peerHits.Load(),
		ThermalSims:    e.thermalSims.Load(),
		SurrogateHits:  scalar + spatial,
		ScalarHits:     scalar,
		SpatialHits:    spatial,
		CGIterations:   e.cgIterations.Load(),
		ModelReuses:    e.modelReuses.Load(),
		ModelEvictions: e.models.evicted(),
		Calibrations:   e.calibrations.Load(),
		CalWorstErrC:   math.Float64frombits(e.calWorstErrBits.Load()),
	}
}

// MemoLen returns the number of completed simulations resident in the memo.
func (e *Engine) MemoLen() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += len(sh.sims)
		sh.mu.Unlock()
	}
	return n
}

func (e *Engine) shardOf(k engineKey) *engineShard {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%g|%g|%d|%d|%d|%d|%d|%d",
		k.bench.name, k.bench.refCoreW, k.bench.traffic,
		k.ek.pl.n, k.ek.pl.edge2, k.ek.pl.s12, k.ek.pl.s22, k.ek.fIdx, k.ek.cores)
	return &e.shards[h.Sum32()%engineShards]
}

// checkEval validates the evaluation coordinates shared by every entry
// point.
func checkEval(op power.DVFSPoint, p int) (int, error) {
	fIdx := fIdxOf(op)
	if fIdx < 0 {
		return 0, fmt.Errorf("org: operating point %+v not in the DVFS table", op)
	}
	if p <= 0 || p > floorplan.NumCores {
		return 0, fmt.Errorf("org: active core count %d out of range", p)
	}
	return fIdx, nil
}

// nocPower returns the memoized mesh power for one evaluation key.
func (e *Engine) nocPower(b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, k engineKey) (float64, error) {
	sh := e.shardOf(k)
	sh.mu.Lock()
	if w, ok := sh.nocs[k]; ok {
		sh.mu.Unlock()
		return w, nil
	}
	sh.mu.Unlock()
	mesh, err := noc.MeshPower(pl, op, p, b.Traffic, e.phys.Link, e.phys.Router)
	if err != nil {
		return 0, err
	}
	w := mesh.TotalW()
	sh.mu.Lock()
	if len(sh.nocs) >= engineShardCap {
		sh.nocs = make(map[engineKey]float64)
	}
	sh.nocs[k] = w
	sh.mu.Unlock()
	return w, nil
}

// Simulate runs (or joins, or recalls) the full leakage-coupled simulation
// for an evaluation key. This is the always-simulate entry point: the
// surrogate never stands in, so the record carries converged power and
// iteration counts — what the chipletd solve endpoint reports.
func (e *Engine) Simulate(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int) (SimRecord, EvalStats, error) {
	var st EvalStats
	fIdx, err := checkEval(op, p)
	if err != nil {
		return SimRecord{}, st, err
	}
	k := engineKey{bench: benchKeyOf(b), ek: evalKey{pl: keyOf(pl), fIdx: fIdx, cores: p}}
	rec, err := e.sim(ctx, b, pl, op, p, k, &st, nil)
	return rec, st, err
}

// escalation carries the fidelity ladder's decision record down to the full
// simulation's engine.sim span, so ?trace=1 shows why a CG solve ran.
type escalation struct {
	spatialConsulted bool
	spatialPredC     float64
	spatialBoundC    float64
	spatialMarginC   float64
	scalarConsulted  bool
	scalarEstC       float64
	reason           string
}

// sim is the singleflight-deduplicated simulation lookup. Errors are never
// memoized: a failed or canceled computation removes its entry so later
// callers (whose contexts may still be live) retry, and waiters that
// observe a context-shaped error re-enter the lookup under their own
// context.
func (e *Engine) sim(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, k engineKey, st *EvalStats, esc *escalation) (SimRecord, error) {
	sh := e.shardOf(k)
	for {
		if err := ctx.Err(); err != nil {
			return SimRecord{}, fmt.Errorf("org: search canceled: %w", err)
		}
		sh.mu.Lock()
		if ent, ok := sh.sims[k]; ok {
			select {
			case <-ent.done:
				// Completed entry: a memo hit.
				sh.mu.Unlock()
				e.hits.Add(1)
				st.MemoHits++
				return ent.rec, ent.err
			default:
			}
			sh.mu.Unlock()
			// In-flight: join the computation.
			e.dedupWaits.Add(1)
			st.DedupWaits++
			select {
			case <-ent.done:
			case <-ctx.Done():
				return SimRecord{}, fmt.Errorf("org: search canceled: %w", ctx.Err())
			}
			if ent.err == nil {
				return ent.rec, nil
			}
			if ctx.Err() == nil && ctxErrLike(ent.err) {
				// The computing goroutine was canceled but this caller is
				// live: retry (the failed entry has been removed).
				continue
			}
			return SimRecord{}, ent.err
		}
		// Miss: claim the key and compute (or pull from the owning peer).
		ent := &simEntry{done: make(chan struct{})}
		if len(sh.sims) >= engineShardCap {
			e.evictCompletedLocked(sh)
		}
		sh.sims[k] = ent
		sh.mu.Unlock()
		e.misses.Add(1)

		kh := memoKeyHash(k)
		if pf := e.peerFetch.Load(); pf != nil {
			// A fetched record is bit-identical to a local simulation (memo
			// purity), so it is published exactly like one — waiters already
			// parked on ent observe no difference. Any fetch failure falls
			// through to the local simulation below.
			if rec, ok := (*pf)(ctx, e.fpHash, kh); ok {
				ent.rec = rec
				close(ent.done)
				e.indexMemoKey(sh, k, kh)
				e.peerHits.Add(1)
				st.PeerFetches++
				return rec, nil
			}
		}

		rec, err := e.runSim(ctx, b, pl, op, p, k, esc)
		ent.rec, ent.err = rec, err
		if err != nil {
			// Never memoize failures; purity only covers successes.
			sh.mu.Lock()
			if sh.sims[k] == ent {
				delete(sh.sims, k)
			}
			sh.mu.Unlock()
		}
		close(ent.done)
		if err == nil {
			e.indexMemoKey(sh, k, kh)
			st.Sims++
			st.CGIterations += rec.CGIterations
			st.LeakageIterations += rec.LeakageIterations
			e.thermalSims.Add(1)
			e.cgIterations.Add(int64(rec.CGIterations))
		}
		return rec, err
	}
}

// ctxErrLike reports whether err is (or wraps) a context cancellation or
// deadline error — the class of failures that are caller-specific and must
// not be handed to unrelated singleflight waiters.
func ctxErrLike(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evictCompletedLocked drops completed entries from a full shard (callers
// hold sh.mu). In-flight entries are kept: their waiters hold references
// and the computation is about to deliver a fresh, still-wanted value.
func (e *Engine) evictCompletedLocked(sh *engineShard) {
	for k, ent := range sh.sims {
		select {
		case <-ent.done:
			delete(sh.sims, k)
		default:
		}
	}
	// Prune the hash index of evicted entries so peer fetches never resolve
	// a hash to a key the memo no longer holds.
	for h, k := range sh.hashes {
		if _, ok := sh.sims[k]; !ok {
			delete(sh.hashes, h)
		}
	}
}

// runSim executes one full leakage-coupled simulation (no memo interaction).
// esc, when non-nil, is the fidelity ladder's decision record; its fields
// land on the engine.sim span so a trace shows why this CG solve ran.
func (e *Engine) runSim(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, k engineKey, esc *escalation) (SimRecord, error) {
	ctx, esp := obs.Start(ctx, "engine.sim")
	esp.SetAttr("bench", b.Name)
	esp.SetAttr("freq_mhz", op.FreqMHz)
	esp.SetAttr("active_cores", p)
	esp.SetAttr("fidelity", FidelityFull.String())
	if esc != nil {
		esp.SetAttr("escalation", esc.reason)
		if esc.spatialConsulted {
			esp.SetAttr("spatial_pred_c", esc.spatialPredC)
			esp.SetAttr("spatial_bound_c", esc.spatialBoundC)
			esp.SetAttr("spatial_margin_c", esc.spatialMarginC)
		}
		if esc.scalarConsulted {
			esp.SetAttr("scalar_est_c", esc.scalarEstC)
		}
	}
	defer esp.End()
	_, nsp := obs.Start(ctx, "noc.mesh")
	nocW, err := e.nocPower(b, pl, op, p, k)
	nsp.End()
	if err != nil {
		return SimRecord{}, err
	}
	_, fsp := obs.Start(ctx, "floorplan.build")
	fsp.SetAttr("chiplets", pl.NumChiplets())
	fsp.SetAttr("interposer_mm", pl.W)
	cores, err := pl.Cores()
	fsp.End()
	if err != nil {
		return SimRecord{}, err
	}
	_, msp := obs.Start(ctx, "thermal.model")
	msp.SetAttr("grid_n", e.phys.Thermal.Nx)
	model, reused, err := e.model(pl, k.ek.pl)
	msp.SetAttr("reused", reused)
	msp.End()
	if err != nil {
		return SimRecord{}, err
	}
	if reused {
		e.modelReuses.Add(1)
	}
	active, err := power.MintempActive(p)
	if err != nil {
		return SimRecord{}, err
	}
	w := power.Workload{
		RefCoreW: b.RefCoreW,
		Op:       op,
		Active:   active,
		NoCW:     nocW,
		Leakage:  e.phys.Leakage,
	}
	res, err := power.SimulateCtx(ctx, model, cores, w, e.phys.SimOpts)
	if err != nil {
		return SimRecord{}, err
	}
	// The record keeps no field: hand the converged one back to the
	// model's solution pool.
	res.Thermal.Recycle()
	return newSimRecord(res, nocW, model), nil
}

// estimate solves the scalar leakage fixed point: peak temperature and
// total power of p active cores when the silicon sits at the temperature
// implied by effective thermal resistance rEff.
func (e *Engine) estimate(b perf.Benchmark, op power.DVFSPoint, p int, nocW, rEff float64) (totalW, peakC float64) {
	lm := e.phys.Leakage
	dyn := float64(p)*b.RefCoreW*(1-lm.FracAtRef)*power.DynScale(op) + nocW
	l0 := float64(p) * b.RefCoreW * lm.FracAtRef * power.LeakScale(op)
	amb := e.phys.Thermal.AmbientC
	kk := lm.TempCoeff
	den := 1 - rEff*l0*kk
	if den <= 0.05 {
		den = 0.05 // thermal-runaway guard; the estimate saturates high
	}
	peakC = (amb + rEff*(dyn+l0*(1-kk*lm.RefC))) / den
	totalW = dyn + l0*lm.Factor(peakC)
	return totalW, peakC
}

// PeakC evaluates the peak temperature of (benchmark, placement, op, p)
// under the classic two-tier policy: scalar surrogate with margin marginC,
// escalating to the full simulation. It is PeakCPolicy without the spatial
// tier, kept for callers that predate the fidelity ladder.
func (e *Engine) PeakC(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, thresholdC, marginC float64) (float64, EvalStats, error) {
	return e.PeakCPolicy(ctx, b, pl, op, p, EvalPolicy{ThresholdC: thresholdC, ScalarMarginC: marginC})
}

// PeakCPolicy evaluates the peak temperature of (benchmark, placement, op,
// p) under an escalation policy — the fidelity ladder:
//
//  1. spatial tier (when pol.Spatial): the calibrated compact model
//     predicts the per-chiplet peak vector; its hottest entry decides the
//     evaluation when it lands farther than its calibration's worst-case
//     error from pol.ThresholdC. First use calibrates the benchmark's model
//     from the fixed DoE simulations (memoized per engine).
//  2. scalar tier (when pol.ScalarMarginC >= 0 and op is not the canonical
//     calibration point): the scalar surrogate, calibrated from the
//     memoized canonical simulation of the same placement and core count,
//     decides when its estimate sits farther than pol.ScalarMarginC from
//     pol.ThresholdC. It earns its place on spatial-off searches (the
//     CLI and experiment default): EXPERIMENTS.md's scalar-rung ablation
//     row measures 163/159/148 → 133/129/118 full simulations with
//     identical winners. Behind the spatial tier it decides ~2
//     evaluations per search and saves none.
//  3. the full leakage-coupled simulation (memoized). A simulation whose
//     leakage loop runs away (power.RunawayError) evaluates to a peak of
//     +Inf, infeasible at any threshold; runaways are not memoized.
//
// The returned value is a pure function of the arguments, the policy, and
// the engine's physics — independent of evaluation order and concurrency.
func (e *Engine) PeakCPolicy(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, pol EvalPolicy) (float64, EvalStats, error) {
	var st EvalStats
	fIdx, err := checkEval(op, p)
	if err != nil {
		return 0, st, err
	}
	if err := ctx.Err(); err != nil {
		return 0, st, fmt.Errorf("org: search canceled: %w", err)
	}
	bk := benchKeyOf(b)
	pk := keyOf(pl)
	k := engineKey{bench: bk, ek: evalKey{pl: pk, fIdx: fIdx, cores: p}}
	esc := escalation{}
	if pol.Spatial {
		pred, bound, ok, err := e.spatialPeakC(ctx, b, pl, op, p, k, &st)
		if err != nil {
			return 0, st, err
		}
		if ok {
			margin := math.Abs(pred - pol.ThresholdC)
			esc.spatialConsulted = true
			esc.spatialPredC, esc.spatialBoundC, esc.spatialMarginC = pred, bound, margin
			st.SpatialConsulted = true
			st.SpatialPredC, st.SpatialBoundC, st.SpatialMarginC = pred, bound, margin
			if margin > bound {
				st.Fidelity = FidelitySpatial
				st.Reason = "spatial_decisive"
				e.spatialEvals.Add(1)
				return pred, st, nil
			}
			esc.reason = "spatial_within_bound"
		} else {
			esc.reason = "spatial_uncovered"
		}
	}
	if pol.ScalarMarginC >= 0 && fIdx != canonicalFIdx {
		// Calibrate at the canonical point (memoized; usually already
		// simulated, since the search's objective ordering visits the
		// canonical frequency early).
		ck := engineKey{bench: bk, ek: evalKey{pl: pk, fIdx: canonicalFIdx, cores: p}}
		var cst EvalStats
		cref, err := e.sim(ctx, b, pl, power.FrequencySet[canonicalFIdx], p, ck, &cst, nil)
		st.add(cst)
		if err != nil && !isRunaway(err) {
			return 0, st, err
		}
		if err == nil && cref.TotalPowerW > 0 {
			rEff := (cref.PeakC - e.phys.Thermal.AmbientC) / cref.TotalPowerW
			nocW, err := e.nocPower(b, pl, op, p, k)
			if err != nil {
				return 0, st, err
			}
			_, est := e.estimate(b, op, p, nocW, rEff)
			esc.scalarConsulted = true
			esc.scalarEstC = est
			st.ScalarConsulted = true
			st.ScalarEstC = est
			if math.Abs(est-pol.ThresholdC) > pol.ScalarMarginC {
				st.Fidelity = FidelityScalar
				st.Reason = "scalar_decisive"
				e.surrogateEvals.Add(1)
				return est, st, nil
			}
			esc.reason = joinReason(esc.reason, "scalar_within_margin")
		} else {
			esc.reason = joinReason(esc.reason, "scalar_uncalibratable")
		}
	} else if pol.ScalarMarginC >= 0 {
		esc.reason = joinReason(esc.reason, "canonical_point")
	}
	if esc.reason == "" {
		esc.reason = "surrogates_disabled"
	}
	st.Reason = esc.reason
	var sst EvalStats
	rec, err := e.sim(ctx, b, pl, op, p, k, &sst, &esc)
	st.add(sst)
	if isRunaway(err) {
		st.Reason = joinReason(st.Reason, "runaway")
		return math.Inf(1), st, nil
	}
	if err != nil {
		return 0, st, err
	}
	return rec.PeakC, st, nil
}

// isRunaway reports whether err is a diverged leakage loop.
func isRunaway(err error) bool {
	var runaway *power.RunawayError
	return errors.As(err, &runaway)
}

// joinReason appends one escalation reason to a comma-joined chain.
func joinReason(chain, r string) string {
	if chain == "" {
		return r
	}
	return chain + "," + r
}
