// Package serve implements chipletd, the long-lived HTTP/JSON serving
// subsystem over the paper's models. Where the one-shot CLIs rebuild
// thermal models and re-run solves per invocation, chipletd amortizes that
// cost fleet-wide behind three reusable components:
//
//   - a content-addressed LRU result cache (internal/serve/cache) keyed by
//     a canonical hash of the request — placement geometry snapped to the
//     0.5 mm grid, DVFS point, active-core count, grid resolution — with
//     singleflight deduplication so concurrent identical requests share one
//     solve;
//   - a bounded worker pool (internal/serve/pool) with an admission queue,
//     per-request deadlines, cancellation that propagates into CG solver
//     iterations and the greedy search loop, and graceful drain on SIGTERM;
//   - an observability layer (internal/obs + internal/serve/metrics):
//     request-scoped span traces on every compute request (returned inline
//     with ?trace=1, retained in a flight recorder at GET /debug/solves),
//     request IDs echoed in X-Request-Id, structured request logs, and
//     Prometheus text exposition at GET /metrics.
//
// For horizontal scale-out, chipletd adds a batched sweep API with
// cross-request coalescing (POST /v1/batch expands sweep templates
// server-side and deduplicates near-identical candidates on their canonical
// cache keys before they reach the pool), SSE streaming of per-item and
// search progress (?stream=1), and a sharding layer: a static -peers list,
// rendezvous hashing on the engine physics fingerprint, and a memo
// peer-fetch endpoint so a non-owner pulls memoized simulation results from
// the owning node instead of re-simulating (see internal/serve/shard.go).
//
// Endpoints:
//
//	POST /v1/thermal/solve  floorplan + workload -> peak temperature/power
//	POST /v1/org/search     benchmark, threshold, α/β -> best organization
//	POST /v1/cost           Eqs. (1)-(4) manufacturing cost queries
//	POST /v1/cost/tco       server/datacenter TCO elaboration ($/GIPS-year)
//	POST /v1/batch          batched solve/search/cost/tco items + sweep templates
//	GET  /v1/memo/{fp}/{k}  memo peer-fetch (sharding; content-addressed)
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz           liveness + build info + uptime
//	GET  /debug/solves      flight recorder (recent + slow request traces)
//	GET  /debug/search      search convergence audit trails (recent searches)
//	GET  /debug/shard       this node's ring view + per-engine ownership
//	GET  /debug/pprof/*     runtime profiles (only with Options.EnablePprof)
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"chiplet25d/internal/obs"
	"chiplet25d/internal/obs/export"
	"chiplet25d/internal/org"
	"chiplet25d/internal/serve/cache"
	"chiplet25d/internal/serve/metrics"
	"chiplet25d/internal/serve/pool"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address for Run.
	Addr string
	// Workers bounds concurrently admitted requests. A search among them
	// also borrows the slots left idle for its restarts and calibration
	// simulations (pool.TryLend), so at most 2·Workers−1 tasks run at once.
	Workers int
	// SpatialSurrogate enables the spatial compact-model fidelity tier by
	// default for org-search requests that do not set their own
	// spatial_surrogate. Escalation is conservative (org's threshold-side
	// contract, winner parity pinned by the verify drift tier), so the tier
	// changes how much work finds a winner, not which winner is found.
	SpatialSurrogate bool
	// TCONode is the default tech node applied to /v1/cost/tco requests
	// that do not set their own tech_node (empty keeps the base 45nm).
	// Unlike the wall-clock knobs, the node changes elaborations, so the
	// resolved node — not the raw request — enters each request's cache
	// key: two daemons with different defaults never share a stale entry.
	TCONode string
	// QueueDepth bounds the admission queue; beyond it requests get 503.
	QueueDepth int
	// CacheCapacity bounds the result cache in entries.
	CacheCapacity int
	// RequestTimeout is the per-request deadline (504 when exceeded).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful SIGTERM drain.
	DrainTimeout time.Duration
	// MaxGridN caps the requested thermal grid so one request cannot ask
	// for an arbitrarily large model.
	MaxGridN int
	// Logger receives the daemon's structured logs; nil means slog.Default.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the serving
	// mux. Off by default: profiles expose internals and cost CPU.
	EnablePprof bool
	// TraceRingSize is the flight-recorder capacity (recent and slow rings
	// each keep this many traces).
	TraceRingSize int
	// SlowTraceThreshold is the duration at or above which a request trace
	// is also retained in the slow ring. The OTLP tail sampler reuses it:
	// traces at least this slow always export.
	SlowTraceThreshold time.Duration
	// OTLPEndpoint is the base URL of an OTLP/HTTP collector (e.g.
	// http://otel:4318); traces POST to /v1/traces and metric snapshots to
	// /v1/metrics under it. Empty disables export entirely — the disabled
	// path is a nil-receiver no-op, costing no allocation on the solve path.
	OTLPEndpoint string
	// TraceSampleRate is the tail sampler's probability for unremarkable
	// traces (slow and 5xx traces always export). 0 defaults to 1.0; use a
	// negative value to export only slow/error traces.
	TraceSampleRate float64
	// AuditRingSize bounds the per-request search convergence audit trail
	// (events retained per search) and the /debug/search history ring.
	// 0 picks the default (256); negative disables auditing.
	AuditRingSize int
	// Peers lists the base URLs of the other chipletd nodes in a sharded
	// deployment (e.g. http://host2:8080). Empty disables sharding. All
	// nodes must be configured with the same total node set (each naming
	// the others in Peers and itself in SelfURL) for rendezvous ownership
	// to agree.
	Peers []string
	// SelfURL is this node's own base URL as the peers address it. Required
	// when Peers is set (ownership is computed over Peers + SelfURL); if
	// empty while Peers is non-empty, sharding is disabled with a warning.
	SelfURL string
	// PeerTimeout bounds one memo peer-fetch round trip. A fetch that
	// misses the deadline falls back to the local simulation, so a slow or
	// dead peer costs at most this much extra latency per miss. 0 picks
	// the default (500ms).
	PeerTimeout time.Duration
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		Addr:           ":8080",
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		CacheCapacity:  512,
		RequestTimeout: 60 * time.Second,
		DrainTimeout:   30 * time.Second,
		MaxGridN:       128,

		TraceRingSize:      64,
		SlowTraceThreshold: 2 * time.Second,
		TraceSampleRate:    1.0,
		AuditRingSize:      256,
		PeerTimeout:        500 * time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Addr == "" {
		o.Addr = d.Addr
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = d.QueueDepth
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = d.CacheCapacity
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = d.RequestTimeout
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = d.DrainTimeout
	}
	if o.MaxGridN <= 0 {
		o.MaxGridN = d.MaxGridN
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.TraceRingSize <= 0 {
		o.TraceRingSize = d.TraceRingSize
	}
	if o.SlowTraceThreshold <= 0 {
		o.SlowTraceThreshold = d.SlowTraceThreshold
	}
	if o.TraceSampleRate == 0 {
		o.TraceSampleRate = d.TraceSampleRate
	}
	if o.AuditRingSize == 0 {
		o.AuditRingSize = d.AuditRingSize
	}
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = d.PeerTimeout
	}
	return o
}

// runPooled runs a task on the worker pool with the pool as the org.Lender
// in its context, so a search or spatial calibration inside it can borrow
// the slots the pool leaves idle.
func (s *Server) runPooled(ctx context.Context, task pool.Task) (any, error) {
	return s.pool.Do(ctx, func(c context.Context) (any, error) {
		return task(org.WithLender(c, s.pool))
	})
}

// searchWorkers resolves the goroutine cap of one org search: the
// request's own search_workers, or GOMAXPROCS when it sets none. Beyond the
// search's own pool worker each goroutine borrows a slot the pool leaves
// idle (runPooled), so a loaded pool runs the search serially whatever the
// cap. Restarts are CPU-bound, so goroutines beyond the schedulable Ps only
// add contention (benchmarked below 1x serial on a 1-CPU box), and worker
// count never changes a result, only wall clock: a larger request is capped
// at GOMAXPROCS, with a logged warning.
func searchWorkers(logger *slog.Logger, requested *int) int {
	procs := runtime.GOMAXPROCS(0)
	switch {
	case requested == nil:
		return procs
	case *requested > procs:
		logger.Warn("capping search workers at GOMAXPROCS", "requested", *requested, "gomaxprocs", procs)
		return procs
	}
	return *requested
}

// Server is the chipletd HTTP serving subsystem.
type Server struct {
	opts     Options
	cache    *cache.Cache
	pool     *pool.Pool
	engines  *org.EngineCache
	reg      *metrics.Registry
	mux      *http.ServeMux
	logger   *slog.Logger
	recorder *obs.Recorder
	build    buildInfo
	started  time.Time
	exporter *export.Exporter // nil when OTLPEndpoint is unset (no-op)
	audits   *auditRing       // /debug/search history; nil when auditing disabled

	// Sharding state: nil ring means standalone (every fingerprint local).
	ring      *shardRing
	peerHTTP  *http.Client
	peerFetch org.PeerFetchFunc // installed on engines via Server.engine

	requests     *metrics.CounterVec // endpoint, code
	cacheHits    *metrics.CounterVec // endpoint
	cacheMisses  *metrics.CounterVec // endpoint
	solveLatency *metrics.Histogram
	cgIterations *metrics.Counter
	thermalSims  *metrics.Counter
	cgIterHist   *metrics.HistogramVec // CG iterations per solve, by preconditioner
	leakIterHist *metrics.Histogram    // leakage-loop iterations per solve
	stageSeconds *metrics.HistogramVec // stage
	inflight     *metrics.GaugeVec     // route

	peerFetches      *metrics.CounterVec // result: hit, miss, error
	peerFetchSeconds *metrics.Histogram  // successful fetch round trips
	memoServed       *metrics.CounterVec // result: hit, miss (GET /v1/memo)
	batchItems       *metrics.Counter
	batchCoalesced   *metrics.Counter
	tcoEvals         *metrics.CounterVec // fidelity: analytic, spatial
}

// New assembles a server (not yet listening; use Run, or Handler with your
// own http.Server).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		cache:    cache.New(opts.CacheCapacity),
		pool:     pool.New(opts.Workers, opts.QueueDepth),
		engines:  org.NewEngineCache(8),
		reg:      metrics.NewRegistry(),
		mux:      http.NewServeMux(),
		logger:   opts.Logger,
		recorder: obs.NewRecorder(opts.TraceRingSize, opts.SlowTraceThreshold),
		build:    readBuildInfo(),
		started:  time.Now(),
	}
	if opts.AuditRingSize > 0 {
		s.audits = newAuditRing(opts.AuditRingSize)
	}
	if len(opts.Peers) > 0 {
		if opts.SelfURL == "" {
			s.logger.Warn("peers configured without a self URL; sharding disabled")
		} else {
			s.ring = newShardRing(opts.SelfURL, opts.Peers)
			s.peerHTTP = &http.Client{Timeout: opts.PeerTimeout}
			s.logger.Info("sharding enabled",
				"self", s.ring.self, "nodes", len(s.ring.nodes),
				"peer_timeout", opts.PeerTimeout.String())
		}
	}
	s.peerFetch = s.peerFetcher()
	s.exporter = export.New(export.Options{
		Endpoint:    opts.OTLPEndpoint,
		ServiceName: "chipletd",
		Sampler: export.NewTailSampler(opts.TraceSampleRate,
			opts.SlowTraceThreshold, time.Now().UnixNano()),
		MetricsSource: metricsSource(s.reg),
		Logger:        opts.Logger,
	})
	s.requests = s.reg.CounterVec("chipletd_requests_total",
		"HTTP requests by endpoint and status code.", "endpoint", "code")
	s.cacheHits = s.reg.CounterVec("chipletd_cache_hits_total",
		"Requests answered from the content-addressed result cache.", "endpoint")
	s.cacheMisses = s.reg.CounterVec("chipletd_cache_misses_total",
		"Requests that ran a fresh computation.", "endpoint")
	s.solveLatency = s.reg.Histogram("chipletd_solve_latency_seconds",
		"End-to-end latency of compute endpoints (cache hits included).",
		[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
	s.cgIterations = s.reg.Counter("chipletd_cg_iterations_total",
		"Conjugate-gradient iterations spent in thermal solves.")
	s.thermalSims = s.reg.Counter("chipletd_thermal_sims_total",
		"Full leakage-coupled thermal simulations run.")
	s.cgIterHist = s.reg.HistogramVec("chipletd_cg_iterations",
		"Conjugate-gradient iterations per fresh solve, by preconditioner.",
		[]float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		"precond")
	s.leakIterHist = s.reg.Histogram("chipletd_leakage_iterations",
		"Leakage-loop iterations per fresh solve.",
		[]float64{1, 2, 3, 4, 6, 8, 12})
	s.stageSeconds = s.reg.HistogramVec("chipletd_stage_duration_seconds",
		"Per-stage durations from request span traces.",
		[]float64{0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60},
		"stage")
	s.inflight = s.reg.GaugeVec("chipletd_inflight_requests",
		"In-flight requests by route.", "route")
	s.reg.GaugeVec("chipletd_build_info",
		"Build metadata; value is always 1.", "version", "revision", "goversion").
		With(s.build.Version, s.build.Revision, s.build.GoVersion).Set(1)
	s.reg.GaugeFunc("chipletd_queue_depth",
		"Tasks waiting in the worker-pool admission queue.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	s.reg.GaugeFunc("chipletd_busy_workers",
		"Worker-pool tasks currently executing.",
		func() float64 { return float64(s.pool.Running()) })
	s.reg.CounterFunc("chipletd_pool_lends_total",
		"Idle worker slots lent to a search's restarts or calibration simulations, one task each.",
		func() float64 { return float64(s.pool.Lends()) })
	s.reg.GaugeFunc("chipletd_cache_entries",
		"Entries resident in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	// The evaluation engine is the second, finer-grained memo tier under the
	// result cache: it deduplicates individual simulations across requests
	// that miss the (whole-request) cache above. Its counters live on the
	// engines themselves, so they are exported as callback-backed counters.
	s.reg.CounterFunc("chipletd_eval_memo_hits_total",
		"Engine simulation lookups answered from the shared memo.",
		func() float64 { return float64(s.engines.Stats().Hits) })
	s.reg.CounterFunc("chipletd_eval_memo_misses_total",
		"Engine simulation lookups that computed a fresh simulation.",
		func() float64 { return float64(s.engines.Stats().Misses) })
	s.reg.CounterFunc("chipletd_eval_dedup_waits_total",
		"Engine simulation lookups that joined another caller's in-flight computation.",
		func() float64 { return float64(s.engines.Stats().DedupWaits) })
	// Fidelity-tier counters: evaluations decided by each surrogate tier
	// without a full simulation, plus the calibration telemetry the drift
	// check watches. surrogate_hits stays the scalar+spatial total so
	// existing dashboards keep working. All callbacks read engine stats
	// snapshots only — scraping /metrics never triggers a calibration.
	s.reg.CounterFunc("chipletd_eval_surrogate_hits_total",
		"Engine evaluations decided by any surrogate tier (scalar + spatial).",
		func() float64 { st := s.engines.Stats(); return float64(st.ScalarHits + st.SpatialHits) })
	s.reg.CounterFunc("chipletd_eval_scalar_hits_total",
		"Engine evaluations decided by the scalar DVFS-rescaling surrogate.",
		func() float64 { return float64(s.engines.Stats().ScalarHits) })
	s.reg.CounterFunc("chipletd_eval_spatial_hits_total",
		"Engine evaluations decided by the spatial compact-model surrogate.",
		func() float64 { return float64(s.engines.Stats().SpatialHits) })
	s.reg.CounterFunc("chipletd_eval_model_reuses_total",
		"Thermal model assemblies skipped by the per-engine model cache.",
		func() float64 { return float64(s.engines.Stats().ModelReuses) })
	s.reg.CounterFunc("chipletd_eval_spatial_calibrations_total",
		"Spatial-surrogate calibrations run (one per engine fingerprint and benchmark).",
		func() float64 { return float64(s.engines.Stats().Calibrations) })
	s.reg.GaugeFunc("chipletd_eval_spatial_cal_worst_err_c",
		"Worst recorded spatial-calibration error bound across resident engines (°C).",
		func() float64 { return s.engines.Stats().CalWorstErrC })
	s.reg.GaugeFunc("chipletd_eval_memo_entries",
		"Completed simulations resident across all engine memos.",
		func() float64 { return float64(s.engines.MemoLen()) })
	s.reg.GaugeFunc("chipletd_eval_engines",
		"Evaluation engines resident in the fingerprint-keyed cache.",
		func() float64 { return float64(s.engines.Len()) })
	// Scale-out telemetry: batch coalescing and the memo peer-fetch exchange
	// (both directions — fetches this node issued, and memo lookups it served
	// to peers), plus this node's rendezvous-ownership view.
	s.peerFetches = s.reg.CounterVec("chipletd_peer_fetch_total",
		"Memo peer-fetch attempts by result (hit, miss, error).", "result")
	s.peerFetchSeconds = s.reg.Histogram("chipletd_peer_fetch_seconds",
		"Round-trip latency of successful memo peer fetches.",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5})
	s.memoServed = s.reg.CounterVec("chipletd_memo_requests_total",
		"GET /v1/memo lookups served to peers by result (hit, miss).", "result")
	s.batchItems = s.reg.Counter("chipletd_batch_items_total",
		"Items received in /v1/batch requests (after sweep expansion).")
	s.batchCoalesced = s.reg.Counter("chipletd_batch_coalesced_total",
		"Batch items coalesced onto another item's computation within their batch.")
	s.tcoEvals = s.reg.CounterVec("chipletd_tco_evals_total",
		"Fresh server TCO elaborations by fidelity tier (analytic, spatial).", "fidelity")
	s.reg.CounterFunc("chipletd_eval_peer_hits_total",
		"Engine memo misses answered by a peer fetch instead of a local simulation.",
		func() float64 { return float64(s.engines.Stats().PeerHits) })
	s.reg.GaugeFunc("chipletd_shard_nodes",
		"Nodes in the rendezvous ring (0 when sharding is disabled).",
		func() float64 {
			if s.ring == nil {
				return 0
			}
			return float64(len(s.ring.nodes))
		})
	s.reg.GaugeFunc("chipletd_shard_owned_engines",
		"Resident engines whose fingerprint this node owns.",
		func() float64 { return float64(s.ownedEngines()) })
	s.reg.GaugeFunc("chipletd_process_start_time_seconds",
		"Unix time the process started, in seconds.",
		func() float64 { return float64(s.started.UnixNano()) / 1e9 })
	s.registerRuntimeMetrics()
	s.registerExporterMetrics()

	s.mux.HandleFunc("POST /v1/thermal/solve", s.instrument("thermal_solve", s.handleSolve))
	s.mux.HandleFunc("POST /v1/org/search", s.instrument("org_search", s.handleSearch))
	s.mux.HandleFunc("POST /v1/cost", s.instrument("cost", s.handleCost))
	s.mux.HandleFunc("POST /v1/cost/tco", s.instrument("cost_tco", s.handleTCO))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/memo/{fp}/{key}", s.instrument("memo_fetch", s.handleMemo))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/solves", s.handleDebugSolves)
	s.mux.HandleFunc("GET /debug/search", s.handleDebugSearch)
	s.mux.HandleFunc("GET /debug/shard", s.handleDebugShard)
	if opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the routed handler (httptest-friendly).
func (s *Server) Handler() http.Handler { return s.mux }

// Run listens on Options.Addr until ctx is canceled (SIGTERM in cmd/
// chipletd), then drains gracefully: the listener closes, in-flight
// requests run to completion within DrainTimeout, and the worker pool shuts
// down.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	// The bound address is logged (not just configured Addr) so ":0" runs —
	// tests, the CI smoke step — can discover the ephemeral port.
	s.logger.Info("listening", "addr", ln.Addr().String(),
		"workers", s.opts.Workers, "queue_depth", s.opts.QueueDepth,
		"version", s.build.Version, "revision", s.build.Revision)
	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.logger.Info("draining", "timeout", s.opts.DrainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	if perr := s.pool.Shutdown(drainCtx); err == nil {
		err = perr
	}
	// Flush the telemetry queue last, after in-flight requests have finished
	// enqueueing their traces; a nil exporter is a no-op.
	if xerr := s.exporter.Shutdown(drainCtx); xerr != nil {
		s.logger.Warn("exporter shutdown", "err", xerr)
	}
	s.logger.Info("drained", "clean", err == nil)
	return err
}

// Exporter returns the OTLP exporter (nil when export is disabled). Tests
// and embedding callers that serve via Handler instead of Run use it to
// flush or shut down the export queue themselves.
func (s *Server) Exporter() *export.Exporter { return s.exporter }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Content negotiation: OpenMetrics when asked for (it carries the
	// per-bucket trace exemplars), classic Prometheus text otherwise.
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
