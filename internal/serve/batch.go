package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"chiplet25d/internal/obs"
	"chiplet25d/internal/org"
)

// POST /v1/batch: one request carrying many solve/search/cost items —
// spelled out individually or generated server-side from a compact sweep
// template (a base request plus parameter axes, expanded as a cross
// product). Items are canonicalized to the same normal form the result
// cache keys on, so near-duplicate candidates coalesce onto one
// computation before they ever reach the worker pool: a 64-candidate sweep
// where 16 geometries are thermally identical runs 16 solves, not 64.
// Execution respects the worker budget (intra-batch parallelism is bounded
// by the serve pool; each search then fans out over its search workers as
// usual), and with ?stream=1 per-item completion and
// search-progress events stream as SSE instead of one terminal response.

// maxBatchItems bounds one batch after sweep expansion: large enough for
// any plausible study sweep, small enough that a malformed template cannot
// ask for millions of solves.
const maxBatchItems = 1024

// BatchItem is one request in a batch; exactly one kind must be set.
type BatchItem struct {
	Solve  *SolveRequest  `json:"solve,omitempty"`
	Search *SearchRequest `json:"search,omitempty"`
	Cost   *CostRequest   `json:"cost,omitempty"`
	TCO    *TCORequest    `json:"tco,omitempty"`
}

// SweepTemplate generates items server-side: a base request (exactly one of
// Solve/Search/TCO) crossed with every non-empty axis. Solve axes are
// spacing_mm, freq_mhz, cores, benchmarks; search axes are benchmarks,
// alphas, betas, thresholds_c; TCO axes are tech_nodes, chiplets_per_lane,
// interposer_mm, lanes_per_server, benchmarks. Axes of another kind are
// rejected rather than ignored, so a typo'd sweep fails loudly.
type SweepTemplate struct {
	Solve  *SolveRequest  `json:"solve,omitempty"`
	Search *SearchRequest `json:"search,omitempty"`
	TCO    *TCORequest    `json:"tco,omitempty"`

	// Benchmarks applies to all kinds.
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Solve axes.
	SpacingMM []float64 `json:"spacing_mm,omitempty"`
	FreqMHz   []float64 `json:"freq_mhz,omitempty"`
	Cores     []int     `json:"cores,omitempty"`

	// Search axes.
	Alphas      []float64 `json:"alphas,omitempty"`
	Betas       []float64 `json:"betas,omitempty"`
	ThresholdsC []float64 `json:"thresholds_c,omitempty"`

	// TCO axes: the fleet-sweep cross product (node x organization x
	// interposer x chassis packing).
	TechNodes       []string  `json:"tech_nodes,omitempty"`
	ChipletsPerLane []int     `json:"chiplets_per_lane,omitempty"`
	InterposerMM    []float64 `json:"interposer_mm,omitempty"`
	LanesPerServer  []int     `json:"lanes_per_server,omitempty"`
}

// BatchRequest is the POST /v1/batch payload. Items and Sweep compose: the
// expanded sweep is appended after the explicit items.
type BatchRequest struct {
	Items []BatchItem    `json:"items,omitempty"`
	Sweep *SweepTemplate `json:"sweep,omitempty"`
	// Parallelism bounds concurrent unique computations within this batch
	// (default: min(server workers, unique items)). The serve pool still
	// bounds global concurrency; this knob only keeps one huge batch from
	// monopolizing the admission queue.
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchItemResult reports one item. Key is the item's canonical cache key
// (empty for cost items, which are too cheap to coalesce); items that
// coalesced onto an earlier item's computation carry Coalesced=true and the
// shared Key.
type BatchItemResult struct {
	Index     int             `json:"index"`
	Kind      string          `json:"kind"` // solve, search, cost, tco
	Status    int             `json:"status"`
	Error     string          `json:"error,omitempty"`
	Key       string          `json:"key,omitempty"`
	RequestID string          `json:"request_id"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Solve     *SolveResponse  `json:"solve,omitempty"`
	Search    *SearchResponse `json:"search,omitempty"`
	Cost      *CostResponse   `json:"cost,omitempty"`
	TCO       *TCOResponse    `json:"tco,omitempty"`
}

// BatchResponse reports the whole batch. CoalesceHitRatio is the fraction
// of items that did not need a fresh computation — coalesced intra-batch,
// answered from the result cache, or deduplicated against another request
// in flight.
type BatchResponse struct {
	Items            []BatchItemResult `json:"items"`
	Total            int               `json:"total"`
	UniqueKeys       int               `json:"unique_keys"`
	Coalesced        int               `json:"coalesced"`
	CacheHits        int               `json:"cache_hits"`
	Computed         int               `json:"computed"`
	CoalesceHitRatio float64           `json:"coalesce_hit_ratio"`
	ElapsedMS        float64           `json:"elapsed_ms"`
}

// Expand generates the sweep's items — exported so differential checks and
// clients can reproduce the server-side expansion (and its item order)
// exactly.
func (t *SweepTemplate) Expand() ([]BatchItem, error) {
	bases := 0
	for _, set := range []bool{t.Solve != nil, t.Search != nil, t.TCO != nil} {
		if set {
			bases++
		}
	}
	if bases != 1 {
		return nil, fmt.Errorf("sweep: exactly one of solve, search, or tco must be set, got %d", bases)
	}
	tcoAxes := len(t.TechNodes) + len(t.ChipletsPerLane) + len(t.InterposerMM) + len(t.LanesPerServer)
	switch {
	case t.Solve != nil:
		if len(t.Alphas)+len(t.Betas)+len(t.ThresholdsC) > 0 {
			return nil, fmt.Errorf("sweep: alphas/betas/thresholds_c are search axes, but the base is a solve")
		}
		if tcoAxes > 0 {
			return nil, fmt.Errorf("sweep: tech_nodes/chiplets_per_lane/interposer_mm/lanes_per_server are tco axes, but the base is a solve")
		}
		return t.expandSolve()
	case t.Search != nil:
		if len(t.SpacingMM)+len(t.FreqMHz)+len(t.Cores) > 0 {
			return nil, fmt.Errorf("sweep: spacing_mm/freq_mhz/cores are solve axes, but the base is a search")
		}
		if tcoAxes > 0 {
			return nil, fmt.Errorf("sweep: tech_nodes/chiplets_per_lane/interposer_mm/lanes_per_server are tco axes, but the base is a search")
		}
		return t.expandSearch()
	default:
		if len(t.Alphas)+len(t.Betas)+len(t.ThresholdsC) > 0 {
			return nil, fmt.Errorf("sweep: alphas/betas/thresholds_c are search axes, but the base is a tco")
		}
		if len(t.SpacingMM)+len(t.FreqMHz)+len(t.Cores) > 0 {
			return nil, fmt.Errorf("sweep: spacing_mm/freq_mhz/cores are solve axes, but the base is a tco")
		}
		return t.expandTCO()
	}
}

// cross applies one axis to every item so far: for each existing item and
// each axis value, emit a copy with the value applied. Empty axes are
// identity, so unset axes keep the base request's own value.
func cross[T any](items []BatchItem, axis []T, apply func(BatchItem, T) BatchItem) ([]BatchItem, error) {
	if len(axis) == 0 {
		return items, nil
	}
	out := make([]BatchItem, 0, len(items)*len(axis))
	for _, it := range items {
		for _, v := range axis {
			out = append(out, apply(it, v))
			if len(out) > maxBatchItems {
				return nil, fmt.Errorf("sweep expands beyond the %d-item batch limit", maxBatchItems)
			}
		}
	}
	return out, nil
}

func (t *SweepTemplate) expandSolve() ([]BatchItem, error) {
	items := []BatchItem{{Solve: t.Solve}}
	var err error
	// Each copy takes fresh pointers for the axis values it overrides, so
	// items never alias each other's (or the template's) fields.
	if items, err = cross(items, t.Benchmarks, func(it BatchItem, b string) BatchItem {
		cp := *it.Solve
		cp.Benchmark = b
		return BatchItem{Solve: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.SpacingMM, func(it BatchItem, sp float64) BatchItem {
		cp := *it.Solve
		v := sp
		cp.Placement.SpacingMM = &v
		return BatchItem{Solve: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.FreqMHz, func(it BatchItem, f float64) BatchItem {
		cp := *it.Solve
		cp.FreqMHz = f
		return BatchItem{Solve: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.Cores, func(it BatchItem, c int) BatchItem {
		cp := *it.Solve
		cp.Cores = c
		return BatchItem{Solve: &cp}
	}); err != nil {
		return nil, err
	}
	return items, nil
}

func (t *SweepTemplate) expandSearch() ([]BatchItem, error) {
	items := []BatchItem{{Search: t.Search}}
	var err error
	if items, err = cross(items, t.Benchmarks, func(it BatchItem, b string) BatchItem {
		cp := *it.Search
		cp.Benchmark = b
		cp.CustomBenchmark = nil
		return BatchItem{Search: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.Alphas, func(it BatchItem, a float64) BatchItem {
		cp := *it.Search
		v := a
		cp.Alpha = &v
		return BatchItem{Search: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.Betas, func(it BatchItem, b float64) BatchItem {
		cp := *it.Search
		v := b
		cp.Beta = &v
		return BatchItem{Search: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.ThresholdsC, func(it BatchItem, th float64) BatchItem {
		cp := *it.Search
		v := th
		cp.ThresholdC = &v
		return BatchItem{Search: &cp}
	}); err != nil {
		return nil, err
	}
	return items, nil
}

func (t *SweepTemplate) expandTCO() ([]BatchItem, error) {
	items := []BatchItem{{TCO: t.TCO}}
	var err error
	if items, err = cross(items, t.Benchmarks, func(it BatchItem, b string) BatchItem {
		cp := *it.TCO
		cp.Benchmark = b
		return BatchItem{TCO: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.TechNodes, func(it BatchItem, nd string) BatchItem {
		cp := *it.TCO
		cp.TechNode = nd
		return BatchItem{TCO: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.ChipletsPerLane, func(it BatchItem, n int) BatchItem {
		cp := *it.TCO
		cp.Chiplets = n
		return BatchItem{TCO: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.InterposerMM, func(it BatchItem, e float64) BatchItem {
		cp := *it.TCO
		cp.InterposerMM = e
		return BatchItem{TCO: &cp}
	}); err != nil {
		return nil, err
	}
	if items, err = cross(items, t.LanesPerServer, func(it BatchItem, l int) BatchItem {
		cp := *it.TCO
		v := l
		cp.MaxLanesPerServer = &v
		return BatchItem{TCO: &cp}
	}); err != nil {
		return nil, err
	}
	return items, nil
}

// batchWork is one resolved item: its canonical identity plus the
// computation to run on a cache miss. Items whose resolution failed carry
// only err (reported per-item as 400; the rest of the batch still runs).
type batchWork struct {
	index    int
	kind     string
	key      string
	computer func(context.Context) (any, error)
	direct   bool // run inline, no cache/pool (cost items)
	err      error
}

// resolveBatchItem canonicalizes one item. notify receives live search
// audit events (nil outside SSE mode).
func (s *Server) resolveBatchItem(idx int, it BatchItem, notify func(org.AuditEvent)) batchWork {
	set := 0
	for _, p := range []bool{it.Solve != nil, it.Search != nil, it.Cost != nil, it.TCO != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return batchWork{index: idx, err: fmt.Errorf("item %d: exactly one of solve, search, cost, or tco must be set", idx)}
	}
	switch {
	case it.Solve != nil:
		sp, key, err := s.resolveSolve(it.Solve)
		if err != nil {
			return batchWork{index: idx, kind: "solve", err: fmt.Errorf("item %d: %w", idx, err)}
		}
		return batchWork{index: idx, kind: "solve", key: key, computer: s.solveComputer(sp)}
	case it.Search != nil:
		cfg, key, err := s.resolveSearch(it.Search)
		if err != nil {
			return batchWork{index: idx, kind: "search", err: fmt.Errorf("item %d: %w", idx, err)}
		}
		return batchWork{index: idx, kind: "search", key: key, computer: s.searchComputer(cfg, it.Search.Exhaustive, key, notify)}
	case it.TCO != nil:
		// TCO items are keyed (not direct like cost items): a fleet sweep
		// repeats many identical elaborations across its cross product, and
		// keying them buys intra-batch coalescing, the result cache, and
		// bit-identity with sequential /v1/cost/tco calls.
		sp, key, err := s.resolveTCO(it.TCO)
		if err != nil {
			return batchWork{index: idx, kind: "tco", err: fmt.Errorf("item %d: %w", idx, err)}
		}
		return batchWork{index: idx, kind: "tco", key: key, computer: s.tcoComputer(sp, key)}
	default:
		req := it.Cost
		return batchWork{index: idx, kind: "cost", direct: true, computer: func(context.Context) (any, error) {
			resp, err := costCompute(req)
			if err != nil {
				return nil, fmt.Errorf("item %d: %w", idx, err)
			}
			return resp, nil
		}}
	}
}

// groupOutcome is the shared result of one unique computation, fanned out
// to every member of its coalescing group.
type groupOutcome struct {
	val any
	hit bool
	err error
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	const endpoint = "batch"
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	items := req.Items
	if req.Sweep != nil {
		expanded, err := req.Sweep.Expand()
		if err != nil {
			s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
			return
		}
		items = append(items, expanded...)
	}
	if len(items) == 0 {
		s.fail(w, r, endpoint, http.StatusBadRequest, fmt.Errorf("batch has no items (set items or sweep)"), start)
		return
	}
	if len(items) > maxBatchItems {
		s.fail(w, r, endpoint, http.StatusBadRequest,
			fmt.Errorf("batch has %d items, limit %d", len(items), maxBatchItems), start)
		return
	}
	s.batchItems.Add(float64(len(items)))
	batchID := obs.RequestID(ctx)

	var sink *sseSink
	if wantStream(r) {
		if sink = newSSESink(w); sink == nil {
			s.fail(w, r, endpoint, http.StatusInternalServerError, errStreamUnsupported, start)
			return
		}
	}

	// Resolve every item to its canonical form, then group by key: one
	// computation per unique key, results fanned out to all members.
	work := make([]batchWork, len(items))
	for i, it := range items {
		var notify func(org.AuditEvent)
		if sink != nil {
			idx := i
			notify = func(ev org.AuditEvent) {
				if ev.Kind != org.AuditEval {
					sink.send("search", batchSearchEvent{Item: idx, Event: ev})
				}
			}
		}
		work[i] = s.resolveBatchItem(i, it, notify)
	}
	groups := make(map[string][]int) // key -> member indices, first is representative
	var order []string               // first-seen order, for deterministic execution
	directs := 0
	for i, bw := range work {
		if bw.err != nil {
			continue
		}
		if bw.direct {
			directs++
			continue
		}
		if _, ok := groups[bw.key]; !ok {
			order = append(order, bw.key)
		}
		groups[bw.key] = append(groups[bw.key], i)
	}

	parallel := req.Parallelism
	if parallel <= 0 {
		parallel = s.opts.Workers
	}
	// Cap at admission capacity so one batch cannot self-inflict 503s by
	// flooding its own pool queue.
	if maxP := s.opts.Workers + s.opts.QueueDepth; parallel > maxP {
		parallel = maxP
	}
	if parallel > len(order) && len(order) > 0 {
		parallel = len(order)
	}

	results := make([]BatchItemResult, len(items))
	outcomes := make(map[string]*groupOutcome, len(order))
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, max(parallel, 1))
	)
	for _, key := range order {
		key := key
		rep := work[groups[key][0]]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			gctx, gsp := obs.Start(ctx, "batch.item")
			gsp.SetAttr("kind", rep.kind)
			gsp.SetAttr("key", key)
			gsp.SetAttr("members", len(groups[key]))
			val, hit, err := s.cache.Do(gctx, key, func(runCtx context.Context) (any, error) {
				runCtx = obs.Reattach(runCtx, gctx)
				return s.pool.Do(runCtx, rep.computer)
			})
			gsp.SetAttr("hit", hit)
			gsp.End()
			out := &groupOutcome{val: val, hit: hit, err: err}
			mu.Lock()
			outcomes[key] = out
			mu.Unlock()
			if sink != nil {
				for _, idx := range groups[key] {
					sink.send("item", itemResult(work[idx], out, groups[key][0], batchID, start))
				}
			}
		}()
	}
	// Cost items run inline: they are microseconds of arithmetic, and
	// routing them through the pool would only add queueing latency.
	for i := range work {
		if work[i].direct && work[i].err == nil {
			val, err := work[i].computer(ctx)
			mu.Lock()
			outcomes["direct:"+fmt.Sprint(i)] = &groupOutcome{val: val, err: err}
			mu.Unlock()
		}
	}
	wg.Wait()

	coalesced, cacheHits, computed := 0, 0, 0
	for i, bw := range work {
		switch {
		case bw.err != nil:
			results[i] = BatchItemResult{
				Index: i, Kind: bw.kind, Status: http.StatusBadRequest,
				Error: bw.err.Error(), RequestID: fmt.Sprintf("%s/%d", batchID, i),
			}
			if sink != nil {
				sink.send("item", results[i])
			}
		case bw.direct:
			results[i] = itemResult(bw, outcomes["direct:"+fmt.Sprint(i)], i, batchID, start)
			if sink != nil {
				sink.send("item", results[i])
			}
		default:
			out := outcomes[bw.key]
			rep := groups[bw.key][0]
			results[i] = itemResult(bw, out, rep, batchID, start)
			if i != rep {
				coalesced++
			} else if out.err == nil {
				if out.hit {
					cacheHits++
				} else {
					computed++
				}
			}
		}
	}
	s.batchCoalesced.Add(float64(coalesced))
	resp := BatchResponse{
		Items:      results,
		Total:      len(items),
		UniqueKeys: len(order),
		Coalesced:  coalesced,
		CacheHits:  cacheHits,
		Computed:   computed,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1e3,
	}
	if n := len(items) - directs; n > 0 {
		resp.CoalesceHitRatio = 1 - float64(computed)/float64(n)
	}
	if sink != nil {
		s.requests.With(endpoint, statusLabel(http.StatusOK)).Inc()
		resp.Items = nil // every item already streamed
		sink.send("done", resp)
		return
	}
	s.finish(w, endpoint, http.StatusOK, resp, start)
}

// batchSearchEvent wraps a live search audit event with the batch item
// index it belongs to (SSE mode).
type batchSearchEvent struct {
	Item  int            `json:"item"`
	Event org.AuditEvent `json:"event"`
}

// itemResult renders one member's view of its group's shared outcome.
func itemResult(bw batchWork, out *groupOutcome, rep int, batchID string, start time.Time) BatchItemResult {
	res := BatchItemResult{
		Index:     bw.index,
		Kind:      bw.kind,
		Key:       bw.key,
		RequestID: fmt.Sprintf("%s/%d", batchID, bw.index),
		Coalesced: !bw.direct && bw.index != rep,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	}
	if out == nil || out.err != nil {
		var err error
		if out == nil {
			err = context.Canceled
		} else {
			err = out.err
		}
		res.Status = errStatus(err)
		res.Error = err.Error()
		return res
	}
	res.Status = http.StatusOK
	res.Cached = out.hit
	switch v := out.val.(type) {
	case *SolveResponse:
		cp := *v
		cp.Cached = out.hit
		cp.CacheKey = bw.key
		res.Solve = &cp
	case *SearchResponse:
		cp := *v
		cp.Cached = out.hit
		cp.CacheKey = bw.key
		cp.Audit = nil // trails are per-batch noise; use ?audit=1 on the single endpoint
		res.Search = &cp
	case *CostResponse:
		res.Cost = v
	case *TCOResponse:
		cp := *v
		cp.Cached = out.hit
		cp.CacheKey = bw.key
		res.TCO = &cp
	}
	return res
}
