package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"chiplet25d/internal/config"
	"chiplet25d/internal/cost"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/serve/pool"
)

// statusClientClosed is the nginx-convention code for "client went away
// before the response" — used for the request counter label and (moot, the
// client is gone) the response status.
const statusClientClosed = 499

// errorResponse is the JSON error envelope. RequestID lets a client quote
// the failing request when digging through logs or /debug/solves.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// decodeJSON strictly decodes a bounded request body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid JSON request: trailing data after the object")
	}
	return nil
}

// errStatus maps computation errors to HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, pool.ErrQueueFull), errors.Is(err, pool.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	default:
		return http.StatusInternalServerError
	}
}

// finish writes the JSON response and records the request metrics.
func (s *Server) finish(w http.ResponseWriter, endpoint string, code int, v any, start time.Time) {
	s.requests.With(endpoint, fmt.Sprintf("%d", code)).Inc()
	s.solveLatency.Observe(time.Since(start).Seconds())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, endpoint string, code int, err error, start time.Time) {
	s.finish(w, endpoint, code, errorResponse{Error: err.Error(), RequestID: obs.RequestID(r.Context())}, start)
}

// wantTrace reports whether the client asked for the span trace inline
// (?trace=1).
func wantTrace(r *http.Request) bool { return r.URL.Query().Get("trace") == "1" }

// wantAudit reports whether the client asked for the search convergence
// audit trail inline (?audit=1).
func wantAudit(r *http.Request) bool { return r.URL.Query().Get("audit") == "1" }

// snapshotTrace finalizes and serializes the request's trace for inline
// return; nil on an untraced context. Finishing here (rather than in the
// middleware) excludes only the JSON encode from the reported duration, and
// the middleware's later Finish is an idempotent no-op.
func snapshotTrace(ctx context.Context) *obs.TraceJSON {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return nil
	}
	tr.Finish()
	return tr.Snapshot()
}

// Served is the per-request part of a cached single-request answer: whether
// the result cache answered it, its content address, the request's wall
// time and, under ?trace=1, its span tree. Every other field of an answer
// is a pure function of the request and shared through the cache.
type Served struct {
	Cached    bool           `json:"cached"`
	CacheKey  string         `json:"cache_key"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Trace     *obs.TraceJSON `json:"trace,omitempty"`
}

func (sv *Served) served() *Served { return sv }

// lookup answers one single request through the result cache. Under a
// cache.lookup span it runs compute on the worker pool on a miss; the cache
// runs the computation on a context detached from this request (its
// lifetime is refcounted across all waiters), so the closure reattaches the
// trace, logger and request ID first. It marks the trace's cache attribute,
// counts the hit or miss for endpoint, and returns a copy of the shared
// cached value with its Served fields stamped for this request.
func lookup[T any, P interface {
	*T
	served() *Served
}](s *Server, ctx context.Context, r *http.Request, endpoint, key string, start time.Time,
	compute func(context.Context) (any, error)) (*T, error) {
	ctx, csp := obs.Start(ctx, "cache.lookup")
	val, hit, err := s.cache.Do(ctx, key, func(runCtx context.Context) (any, error) {
		return s.runPooled(obs.Reattach(runCtx, ctx), compute)
	})
	csp.SetAttr("hit", hit)
	csp.SetAttr("key", key)
	csp.End()
	if tr := obs.TraceFrom(ctx); tr != nil {
		if hit {
			tr.SetAttr("cache", "hit")
		} else {
			tr.SetAttr("cache", "miss")
		}
	}
	if err != nil {
		return nil, err
	}
	if hit {
		s.cacheHits.With(endpoint).Inc()
	} else {
		s.cacheMisses.With(endpoint).Inc()
	}
	resp := *(val.(*T)) // copy: the cached value is shared
	sv := P(&resp).served()
	sv.Cached = hit
	sv.CacheKey = key
	sv.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	if wantTrace(r) {
		sv.Trace = snapshotTrace(ctx)
	}
	return &resp, nil
}

// ---------------------------------------------------------------------------
// POST /v1/thermal/solve

// PlacementSpec selects a chiplet organization in a request. Exactly one
// geometry mode applies: chiplets == 1 is the monolithic 2D baseline;
// spacing_mm places a uniform r x r matrix; interposer_mm derives s3 from
// the interposer size (Eq. (9)) given s1/s2; otherwise s1/s2/s3 are used
// directly (the paper's Fig. 4(a) organizations).
type PlacementSpec struct {
	Chiplets     int      `json:"chiplets"`
	SpacingMM    *float64 `json:"spacing_mm,omitempty"`
	S1MM         float64  `json:"s1_mm,omitempty"`
	S2MM         float64  `json:"s2_mm,omitempty"`
	S3MM         float64  `json:"s3_mm,omitempty"`
	InterposerMM *float64 `json:"interposer_mm,omitempty"`
}

// Resolve materializes and validates the placement.
func (ps PlacementSpec) Resolve() (floorplan.Placement, error) {
	var (
		pl  floorplan.Placement
		err error
	)
	switch {
	case ps.Chiplets == 1:
		pl = floorplan.SingleChip()
	case ps.Chiplets < 1:
		return floorplan.Placement{}, fmt.Errorf("placement: chiplets must be >= 1, got %d", ps.Chiplets)
	case ps.SpacingMM != nil:
		r := 1
		for r*r < ps.Chiplets {
			r++
		}
		if r*r != ps.Chiplets {
			return floorplan.Placement{}, fmt.Errorf("placement: chiplet count %d is not a square (spacing_mm mode)", ps.Chiplets)
		}
		pl, err = floorplan.UniformGrid(r, *ps.SpacingMM)
	case ps.InterposerMM != nil:
		pl, err = floorplan.PaperOrgForInterposer(ps.Chiplets, *ps.InterposerMM, ps.S1MM, ps.S2MM)
	default:
		pl, err = floorplan.PaperOrg(ps.Chiplets, ps.S1MM, ps.S2MM, ps.S3MM)
	}
	if err != nil {
		return floorplan.Placement{}, fmt.Errorf("placement: %w", err)
	}
	if err := pl.Validate(); err != nil {
		return floorplan.Placement{}, fmt.Errorf("placement: %w", err)
	}
	return pl, nil
}

// SolveRequest asks for one steady-state leakage-coupled solve.
type SolveRequest struct {
	Placement PlacementSpec `json:"placement"`
	Benchmark string        `json:"benchmark"`
	FreqMHz   float64       `json:"freq_mhz"`
	Cores     int           `json:"cores"`
	GridN     int           `json:"grid_n,omitempty"` // default 64 (the paper's resolution)
}

// SolveResponse reports the converged solve. Trace is the request's span
// tree, included only when the client asked with ?trace=1.
type SolveResponse struct {
	PeakC             float64 `json:"peak_c"`
	TotalPowerW       float64 `json:"total_power_w"`
	MeshPowerW        float64 `json:"mesh_power_w"`
	LeakageIterations int     `json:"leakage_iterations"`
	CGIterations      int     `json:"cg_iterations"`
	Served
	// precond is the preconditioner the solve's model ran, for the
	// chipletd_cg_iterations label; it is not encoded.
	precond string
}

// solveSpec is a fully validated solve request.
type solveSpec struct {
	pl    floorplan.Placement
	bench perf.Benchmark
	op    power.DVFSPoint
	fIdx  int
	cores int
	gridN int
}

func (req *SolveRequest) resolve(maxGridN int) (*solveSpec, error) {
	pl, err := req.Placement.Resolve()
	if err != nil {
		return nil, err
	}
	b, err := perf.ByName(req.Benchmark)
	if err != nil {
		return nil, err
	}
	fIdx := -1
	for i, op := range power.FrequencySet {
		if op.FreqMHz == req.FreqMHz {
			fIdx = i
			break
		}
	}
	if fIdx < 0 {
		return nil, fmt.Errorf("freq_mhz %g not in the DVFS table %v", req.FreqMHz, power.FrequencySet)
	}
	if req.Cores < 1 || req.Cores > floorplan.NumCores {
		return nil, fmt.Errorf("cores %d out of range [1, %d]", req.Cores, floorplan.NumCores)
	}
	gridN := req.GridN
	if gridN == 0 {
		gridN = 64
	}
	if gridN < 4 || gridN%4 != 0 || gridN > maxGridN {
		return nil, fmt.Errorf("grid_n %d must be a multiple of 4 in [4, %d]", gridN, maxGridN)
	}
	return &solveSpec{pl: pl, bench: b, op: power.FrequencySet[fIdx], fIdx: fIdx, cores: req.Cores, gridN: gridN}, nil
}

// hm snaps a length to the 0.5 mm placement grid (half-millimeter units),
// the resolution at which two geometries are thermally identical.
func hm(v float64) int { return int(math.Round(v * 2)) }

// cacheKey is the content address of the solve: every input that changes
// the converged result participates; formatting or field order never does.
func (sp *solveSpec) cacheKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"solve|v1|bench=%s|f=%d|p=%d|grid=%d|n=%d|w=%d|h=%d|s1=%d|s2=%d|s3=%d",
		sp.bench.Name, sp.fIdx, sp.cores, sp.gridN,
		sp.pl.NumChiplets(), hm(sp.pl.W), hm(sp.pl.H), hm(sp.pl.S1), hm(sp.pl.S2), hm(sp.pl.S3))))
	return "solve:" + hex.EncodeToString(h[:])
}

// engineConfig maps the solve spec onto the evaluation-engine configuration
// whose physics fingerprint selects (or constructs) the process-wide engine
// for this grid resolution.
func (sp *solveSpec) engineConfig() org.Config {
	cfg := org.DefaultConfig(sp.bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = sp.gridN, sp.gridN
	return cfg
}

// run executes the solve (on a pool worker) through the shared evaluation
// engine, so individual solves and org searches on the same physics dedupe
// into one memo tier.
func (sp *solveSpec) run(ctx context.Context, s *Server) (*SolveResponse, org.EvalStats, error) {
	eng, err := s.engine(sp.engineConfig())
	if err != nil {
		return nil, org.EvalStats{}, err
	}
	ctx, esp := obs.Start(ctx, "engine.lookup")
	rec, st, err := eng.Simulate(ctx, sp.bench, sp.pl, sp.op, sp.cores)
	esp.SetAttr("memo_hit", st.MemoHits > 0)
	esp.SetAttr("dedup_waits", st.DedupWaits)
	esp.End()
	if err != nil {
		return nil, st, err
	}
	return &SolveResponse{
		PeakC:             rec.PeakC,
		TotalPowerW:       rec.TotalPowerW,
		MeshPowerW:        rec.MeshPowerW,
		LeakageIterations: rec.LeakageIterations,
		CGIterations:      rec.CGIterations,
		precond:           rec.Preconditioner,
	}, st, nil
}

// resolveSolve validates a solve request and applies the daemon's solver
// settings, returning the spec and its canonical cache key — the same
// normal form the batch coalescer dedups on.
func (s *Server) resolveSolve(req *SolveRequest) (*solveSpec, string, error) {
	sp, err := req.resolve(s.opts.MaxGridN)
	if err != nil {
		return nil, "", err
	}
	return sp, sp.cacheKey(), nil
}

// solveComputer returns the pool-task body for one resolved solve — the
// computation shared by POST /v1/thermal/solve and batch solve items.
func (s *Server) solveComputer(sp *solveSpec) func(context.Context) (any, error) {
	return func(taskCtx context.Context) (any, error) {
		res, st, err := sp.run(taskCtx, s)
		// Fresh-simulation metrics count only work this request actually
		// ran; an engine-memo hit is free and must not inflate them.
		if err == nil && st.Sims > 0 {
			s.thermalSims.Add(float64(st.Sims))
			s.cgIterations.Add(float64(st.CGIterations))
			s.cgIterHist.With(res.precond).Observe(float64(res.CGIterations))
			s.leakIterHist.Observe(float64(res.LeakageIterations))
		}
		return res, err
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	const endpoint = "thermal_solve"
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	sp, key, err := s.resolveSolve(&req)
	if err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	resp, err := lookup[SolveResponse](s, ctx, r, endpoint, key, start, s.solveComputer(sp))
	if err != nil {
		s.fail(w, r, endpoint, errStatus(err), err, start)
		return
	}
	s.finish(w, endpoint, http.StatusOK, resp, start)
}

// ---------------------------------------------------------------------------
// POST /v1/org/search

// SearchRequest is the full optimizer configuration schema (identical to a
// config file: absent fields keep the paper defaults) plus the serving
// switch between the greedy and exhaustive placement search.
type SearchRequest struct {
	config.File
	Exhaustive bool `json:"exhaustive,omitempty"`
}

// OrgJSON is one organization in a response.
type OrgJSON struct {
	Chiplets     int     `json:"chiplets"`
	S1MM         float64 `json:"s1_mm"`
	S2MM         float64 `json:"s2_mm"`
	S3MM         float64 `json:"s3_mm"`
	InterposerMM float64 `json:"interposer_mm"`
	FreqMHz      float64 `json:"freq_mhz"`
	ActiveCores  int     `json:"active_cores"`
	PeakC        float64 `json:"peak_c"`
	IPS          float64 `json:"gips"`
	CostUSD      float64 `json:"cost_usd"`
	NormPerf     float64 `json:"norm_perf"`
	NormCost     float64 `json:"norm_cost"`
	ObjValue     float64 `json:"obj_value"`
}

// BaselineJSON is the 2D reference in a response.
type BaselineJSON struct {
	Feasible    bool    `json:"feasible"`
	BestIPS     float64 `json:"best_gips"`
	FreqMHz     float64 `json:"freq_mhz"`
	ActiveCores int     `json:"active_cores"`
	PeakC       float64 `json:"peak_c"`
	CostUSD     float64 `json:"cost_usd"`
}

// SearchResponse reports an optimization run. Trace is the request's span
// tree, included only when the client asked with ?trace=1.
type SearchResponse struct {
	Feasible      bool         `json:"feasible"`
	Best          *OrgJSON     `json:"best,omitempty"`
	Baseline      BaselineJSON `json:"baseline"`
	ThermalSims   int          `json:"thermal_sims"`
	SurrogateHits int          `json:"surrogate_hits"`
	// ScalarSurrogateHits and SpatialSurrogateHits break SurrogateHits down
	// by fidelity tier (surrogate_hits stays the total for old clients).
	ScalarSurrogateHits  int   `json:"scalar_surrogate_hits"`
	SpatialSurrogateHits int   `json:"spatial_surrogate_hits"`
	CombosTried          int   `json:"combos_tried"`
	CGIterations         int64 `json:"cg_iterations"`
	// EngineMemoHits and EngineDedupWaits attribute this search's use of the
	// process-wide evaluation memo: evaluations answered from completed
	// entries and evaluations that joined another request's in-flight
	// simulation.
	EngineMemoHits   int64 `json:"engine_memo_hits"`
	EngineDedupWaits int64 `json:"engine_dedup_waits"`
	Served
	// Audit is the search convergence audit trail (restart seeds, accepted
	// and rejected moves, per-evaluation fidelity decisions), included only
	// when the client asked with ?audit=1. Cached responses return the trail
	// of the request that computed them.
	Audit *org.AuditTrail `json:"audit,omitempty"`
}

// searchKey canonicalizes the resolved configuration (config.Save writes
// every field explicitly, so two requests that resolve to the same search
// share one address regardless of which defaults they spelled out).
func searchKey(cfg org.Config, exhaustive bool) (string, error) {
	// Search workers are a wall-clock knob with bit-identical results (org's
	// determinism contract), so they must not fork the content-addressed
	// identity of a search: a serial and a parallel run of the same search
	// share one cache entry.
	cfg.SearchWorkers = 0
	var buf bytes.Buffer
	if err := config.Save(&buf, cfg); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "|exhaustive=%v", exhaustive)
	h := sha256.Sum256(buf.Bytes())
	return "search:" + hex.EncodeToString(h[:]), nil
}

// resolveSearch validates a search request, applies the daemon-default
// inheritance rules, and returns the resolved configuration with its
// canonical cache key — the normal form the batch coalescer dedups on.
func (s *Server) resolveSearch(req *SearchRequest) (org.Config, string, error) {
	cfg, err := req.File.ToConfig()
	if err != nil {
		return org.Config{}, "", err
	}
	if cfg.Thermal.Nx > s.opts.MaxGridN || cfg.Thermal.Ny > s.opts.MaxGridN {
		return org.Config{}, "", fmt.Errorf("thermal_grid_n %d exceeds the server limit %d", cfg.Thermal.Nx, s.opts.MaxGridN)
	}
	cfg.SearchWorkers = searchWorkers(s.logger, req.File.SearchWorkers)
	if req.File.SpatialSurrogate == nil && s.opts.SpatialSurrogate {
		// Requests that do not choose a fidelity policy inherit the daemon's
		// spatial-tier default (winner-invariant; see Options.SpatialSurrogate).
		cfg.SpatialSurrogate = true
	}
	key, err := searchKey(cfg, req.Exhaustive)
	if err != nil {
		return org.Config{}, "", err
	}
	return cfg, key, nil
}

// searchComputer returns the pool-task body for one resolved search — the
// computation shared by POST /v1/org/search (plain and ?stream=1) and batch
// search items. notify, when non-nil, observes every audit event live (the
// SSE streaming path); the audit trail itself always rides the response.
func (s *Server) searchComputer(cfg org.Config, exhaustive bool, key string, notify func(org.AuditEvent)) func(context.Context) (any, error) {
	return func(taskCtx context.Context) (any, error) {
		// Searches that share a physics substrate share one process-wide
		// engine: concurrent requests dedupe and memoize individual
		// simulations even when their search-level knobs (and hence
		// their response-cache keys) differ.
		eng, err := s.engine(cfg)
		if err != nil {
			return nil, err
		}
		sr, err := org.NewSearcherWithEngine(cfg, eng)
		if err != nil {
			return nil, err
		}
		computeStart := time.Now()
		al := org.NewAuditLog(s.opts.AuditRingSize).WithNotify(notify)
		sr.WithContext(taskCtx).WithAudit(al)
		var res org.Result
		if exhaustive {
			res, err = sr.OptimizeExhaustive()
		} else {
			res, err = sr.Optimize()
		}
		s.thermalSims.Add(float64(sr.ThermalSims()))
		s.cgIterations.Add(float64(sr.CGIterations()))
		if err != nil {
			return nil, err
		}
		if tr := obs.TraceFrom(taskCtx); tr != nil {
			tr.SetAttr("engine_memo_hits", sr.EngineHits())
			tr.SetAttr("engine_dedup_waits", sr.EngineDedupWaits())
		}
		resp := searchResponse(res, sr)
		resp.Audit = al.Trail()
		s.audits.add(auditRecord{
			RequestID: obs.RequestID(taskCtx),
			CacheKey:  key,
			Start:     computeStart,
			ElapsedMS: float64(time.Since(computeStart).Microseconds()) / 1e3,
			Feasible:  res.Feasible,
			Trail:     resp.Audit,
		})
		return resp, nil
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	const endpoint = "org_search"
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var req SearchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	cfg, key, err := s.resolveSearch(&req)
	if err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	if wantStream(r) {
		s.streamSearch(w, r, ctx, cfg, req.Exhaustive, key, start)
		return
	}
	resp, err := lookup[SearchResponse](s, ctx, r, endpoint, key, start,
		s.searchComputer(cfg, req.Exhaustive, key, nil))
	if err != nil {
		s.fail(w, r, endpoint, errStatus(err), err, start)
		return
	}
	if !wantAudit(r) {
		// The trail rides the cached value; strip it from the copy unless
		// this client opted in.
		resp.Audit = nil
	}
	s.finish(w, endpoint, http.StatusOK, resp, start)
}

func searchResponse(res org.Result, sr *org.Searcher) *SearchResponse {
	out := &SearchResponse{
		Feasible: res.Feasible,
		Baseline: BaselineJSON{
			Feasible:    res.Baseline.Feasible,
			BestIPS:     res.Baseline.BestIPS,
			FreqMHz:     res.Baseline.Op.FreqMHz,
			ActiveCores: res.Baseline.ActiveCores,
			PeakC:       res.Baseline.PeakC,
			CostUSD:     res.Baseline.CostUSD,
		},
		ThermalSims:          res.ThermalSims,
		SurrogateHits:        res.SurrogateHits,
		ScalarSurrogateHits:  res.ScalarSurrogateHits,
		SpatialSurrogateHits: res.SpatialSurrogateHits,
		CombosTried:          res.CombosTried,
		CGIterations:         sr.CGIterations(),
		EngineMemoHits:       sr.EngineHits(),
		EngineDedupWaits:     sr.EngineDedupWaits(),
	}
	if res.Feasible {
		b := res.Best
		out.Best = &OrgJSON{
			Chiplets:     b.N,
			S1MM:         b.S1,
			S2MM:         b.S2,
			S3MM:         b.S3,
			InterposerMM: b.InterposerMM,
			FreqMHz:      b.Op.FreqMHz,
			ActiveCores:  b.ActiveCores,
			PeakC:        b.PeakC,
			IPS:          b.IPS,
			CostUSD:      b.CostUSD,
			NormPerf:     b.NormPerf,
			NormCost:     b.NormCost,
			ObjValue:     b.ObjValue,
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// POST /v1/cost

// CostRequest queries the Eq. (1)-(4) manufacturing cost model.
type CostRequest struct {
	Chiplets     int      `json:"chiplets"`                // 1 (2D baseline), 4, or 16
	InterposerMM float64  `json:"interposer_mm,omitempty"` // required for chiplets > 1
	D0PerCM2     *float64 `json:"d0_per_cm2,omitempty"`
	BondCostUSD  *float64 `json:"bond_cost_usd,omitempty"`
}

// CostResponse reports the cost query.
type CostResponse struct {
	CostUSD         float64 `json:"cost_usd"`
	SingleChipUSD   float64 `json:"single_chip_cost_usd"`
	NormCost        float64 `json:"norm_cost"`
	ChipletYield    float64 `json:"chiplet_yield"`
	SingleChipYield float64 `json:"single_chip_yield"`
}

// costCompute evaluates one cost query; every failure is a client error
// (the model itself cannot fail). Shared by POST /v1/cost and batch items.
func costCompute(req *CostRequest) (*CostResponse, error) {
	p := cost.DefaultParams()
	if req.D0PerCM2 != nil {
		p.D0PerCM2 = *req.D0PerCM2
	}
	if req.BondCostUSD != nil {
		p.BondCost = *req.BondCostUSD
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	single := p.SingleChipCost(floorplan.ChipEdgeMM, floorplan.ChipEdgeMM)
	resp := &CostResponse{
		SingleChipUSD:   single,
		SingleChipYield: p.CMOSYield(floorplan.ChipEdgeMM * floorplan.ChipEdgeMM),
	}
	switch {
	case req.Chiplets == 1:
		resp.CostUSD = single
		resp.NormCost = 1
		resp.ChipletYield = resp.SingleChipYield
	case req.Chiplets == 4 || req.Chiplets == 16:
		minEdge := cost.MinInterposerEdge(req.Chiplets)
		if req.InterposerMM < minEdge || req.InterposerMM > floorplan.MaxInterposerEdgeMM {
			return nil, fmt.Errorf("interposer_mm %g out of range [%g, %g] for %d chiplets",
				req.InterposerMM, minEdge, floorplan.MaxInterposerEdgeMM, req.Chiplets)
		}
		resp.CostUSD = p.Cost25DForInterposer(req.Chiplets, req.InterposerMM)
		resp.NormCost = resp.CostUSD / single
		chipletArea := floorplan.ChipEdgeMM * floorplan.ChipEdgeMM / float64(req.Chiplets)
		resp.ChipletYield = p.CMOSYield(chipletArea)
	default:
		return nil, fmt.Errorf("chiplets must be 1, 4, or 16, got %d", req.Chiplets)
	}
	return resp, nil
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	const endpoint = "cost"
	start := time.Now()
	var req CostRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	resp, err := costCompute(&req)
	if err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	s.finish(w, endpoint, http.StatusOK, *resp, start)
}
