package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chiplet25d/internal/config"
)

func sweepBase() *SolveRequest {
	sp := 1.0
	return &SolveRequest{
		Placement: PlacementSpec{Chiplets: 4, SpacingMM: &sp},
		Benchmark: "cholesky", FreqMHz: 533, Cores: 128, GridN: 8,
	}
}

func TestSweepExpandSolve(t *testing.T) {
	tmpl := SweepTemplate{
		Solve:      sweepBase(),
		Benchmarks: []string{"cholesky", "lu.cont"},
		SpacingMM:  []float64{1, 2},
		FreqMHz:    []float64{533, 800},
		Cores:      []int{128, 256},
	}
	items, err := tmpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 16 {
		t.Fatalf("expanded %d items, want 2*2*2*2 = 16", len(items))
	}
	first, last := items[0].Solve, items[15].Solve
	if first.Benchmark != "cholesky" || *first.Placement.SpacingMM != 1 ||
		first.FreqMHz != 533 || first.Cores != 128 {
		t.Errorf("first item = %+v, want the all-first-axis-values corner", first)
	}
	if last.Benchmark != "lu.cont" || *last.Placement.SpacingMM != 2 ||
		last.FreqMHz != 800 || last.Cores != 256 {
		t.Errorf("last item = %+v, want the all-last-axis-values corner", last)
	}
	// Items must not alias each other's fields (or the template's).
	if items[0].Solve == items[1].Solve || items[0].Solve.Placement.SpacingMM == items[4].Solve.Placement.SpacingMM {
		t.Error("expanded items alias each other")
	}
	if tmpl.Solve.Benchmark != "cholesky" || *tmpl.Solve.Placement.SpacingMM != 1 {
		t.Errorf("expansion mutated the template base: %+v", tmpl.Solve)
	}
}

func TestSweepExpandSearch(t *testing.T) {
	tmpl := SweepTemplate{
		Search: &SearchRequest{File: config.File{Benchmark: "swaptions"}},
		Alphas: []float64{0.3, 0.5},
		Betas:  []float64{0.5, 0.7},
	}
	items, err := tmpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("expanded %d items, want 4", len(items))
	}
	if *items[0].Search.Alpha != 0.3 || *items[0].Search.Beta != 0.5 ||
		*items[3].Search.Alpha != 0.5 || *items[3].Search.Beta != 0.7 {
		t.Errorf("axis values misapplied: %+v / %+v", items[0].Search, items[3].Search)
	}
	if items[0].Search == items[1].Search {
		t.Error("expanded search items alias the same request struct")
	}
	// Items with different alpha values must hold separate pointers (items
	// 0 and 2 differ on the alpha axis).
	if items[0].Search.Alpha == items[2].Search.Alpha {
		t.Error("expanded search items alias each other's alpha")
	}
}

func TestSweepExpandRejections(t *testing.T) {
	for name, tmpl := range map[string]SweepTemplate{
		"neither":            {SpacingMM: []float64{1}},
		"both":               {Solve: sweepBase(), Search: &SearchRequest{}},
		"solve_search_axis":  {Solve: sweepBase(), Alphas: []float64{0.5}},
		"search_solve_axis":  {Search: &SearchRequest{}, SpacingMM: []float64{1}},
		"search_cores_axis":  {Search: &SearchRequest{}, Cores: []int{64}},
		"solve_beyond_limit": {Solve: sweepBase(), Cores: make([]int, maxBatchItems+1)},
	} {
		if _, err := tmpl.Expand(); err == nil {
			t.Errorf("%s: Expand succeeded, want an error", name)
		}
	}
}

// batchCoalesceBody holds three solves of which the first two snap to one
// canonical geometry (spacing 1.0 vs 1.1 both round to the 0.5 mm grid:
// identical S3 and outer edge in half-millimeters), plus one cost item.
const batchCoalesceBody = `{"items": [
  {"solve": {"placement": {"chiplets": 4, "spacing_mm": 1.0}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 8}},
  {"solve": {"placement": {"chiplets": 4, "spacing_mm": 1.1}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 8}},
  {"solve": {"placement": {"chiplets": 4, "spacing_mm": 2.0}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 8}},
  {"cost": {"chiplets": 4, "interposer_mm": 40}}
]}`

func TestBatchCoalescing(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	rec := postJSON(t, h, "/v1/batch", batchCoalesceBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 || resp.UniqueKeys != 2 || resp.Coalesced != 1 || resp.Computed != 2 || resp.CacheHits != 0 {
		t.Fatalf("counters = %+v, want total 4 / unique 2 / coalesced 1 / computed 2", resp)
	}
	// 3 cacheable items, 2 computations: a third of the work was reclaimed.
	if math.Abs(resp.CoalesceHitRatio-1.0/3.0) > 1e-9 {
		t.Errorf("coalesce_hit_ratio = %g, want 1/3", resp.CoalesceHitRatio)
	}
	it := resp.Items
	if it[0].Key != it[1].Key || !it[1].Coalesced || it[0].Coalesced {
		t.Errorf("near-duplicates did not coalesce: %+v / %+v", it[0], it[1])
	}
	if it[0].Solve.PeakC != it[1].Solve.PeakC {
		t.Errorf("coalesced members diverged: %g vs %g", it[0].Solve.PeakC, it[1].Solve.PeakC)
	}
	if it[2].Key == it[0].Key {
		t.Error("distinct spacing 2.0 coalesced with spacing 1.0")
	}
	if it[3].Kind != "cost" || it[3].Cost == nil || it[3].Cost.CostUSD <= 0 || it[3].Key != "" {
		t.Errorf("cost item = %+v, want an inline result with no cache key", it[3])
	}

	// The single endpoint must agree bit for bit and hit the batch-filled
	// cache (batch results are retained, not private to the batch).
	one := postJSON(t, h, "/v1/thermal/solve",
		`{"placement": {"chiplets": 4, "spacing_mm": 1.0}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 8}`)
	var single SolveResponse
	if err := json.Unmarshal(one.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if !single.Cached || single.PeakC != it[0].Solve.PeakC {
		t.Errorf("single endpoint: cached=%v peak=%g, want cache hit matching batch %g",
			single.Cached, single.PeakC, it[0].Solve.PeakC)
	}

	// An identical batch is all cache hits: zero new computations.
	rec = postJSON(t, h, "/v1/batch", batchCoalesceBody)
	var again BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if again.Computed != 0 || again.CacheHits != 2 || again.CoalesceHitRatio != 1 {
		t.Errorf("warm batch = %+v, want computed 0 / cache_hits 2 / ratio 1", again)
	}

	expo := scrape(t, h)
	if v := metricValue(t, expo, "chipletd_batch_items_total"); v != 8 {
		t.Errorf("batch items metric = %v, want 8", v)
	}
	if v := metricValue(t, expo, "chipletd_batch_coalesced_total"); v != 2 {
		t.Errorf("batch coalesced metric = %v, want 2", v)
	}
}

func TestBatchSweepEndpoint(t *testing.T) {
	s := testServer(t, nil)
	body := `{
	  "items": [{"cost": {"chiplets": 4, "interposer_mm": 40}}],
	  "sweep": {
	    "solve": {"placement": {"chiplets": 4, "spacing_mm": 1.0}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 8},
	    "spacing_mm": [1.0, 1.1],
	    "freq_mhz": [533, 800]
	  }
	}`
	rec := postJSON(t, s.Handler(), "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Explicit items come first, then the expanded sweep: 1 cost + 2*2
	// solves, of which each frequency's two spacings share one key.
	if resp.Total != 5 || resp.UniqueKeys != 2 || resp.Coalesced != 2 {
		t.Fatalf("counters = %+v, want total 5 / unique 2 / coalesced 2", resp)
	}
	if resp.Items[0].Kind != "cost" {
		t.Errorf("item 0 kind = %s, want the explicit cost item first", resp.Items[0].Kind)
	}
	for i := 1; i <= 4; i++ {
		if resp.Items[i].Kind != "solve" || resp.Items[i].Status != http.StatusOK {
			t.Errorf("sweep item %d = %+v, want an OK solve", i, resp.Items[i])
		}
	}
}

func TestBatchValidation(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	for name, body := range map[string]string{
		"empty":          `{}`,
		"sweep_both":     `{"sweep": {"solve": {"placement": {"chiplets": 1}}, "search": {"benchmark": "swaptions"}}}`,
		"sweep_bad_axis": `{"sweep": {"solve": {"placement": {"chiplets": 1}}, "alphas": [0.5]}}`,
		"malformed":      `{"items": [`,
		"unknown_field":  `{"wat": 1}`,
	} {
		if rec := postJSON(t, h, "/v1/batch", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
	}

	// Over the post-expansion limit: rejected wholesale.
	var big BatchRequest
	for i := 0; i < maxBatchItems+1; i++ {
		big.Items = append(big.Items, BatchItem{Cost: &CostRequest{Chiplets: 1}})
	}
	raw, _ := json.Marshal(big)
	if rec := postJSON(t, h, "/v1/batch", string(raw)); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", rec.Code)
	}

	// A bad item fails alone; the rest of the batch still runs.
	mixed := `{"items": [
	  {},
	  {"cost": {"chiplets": 4, "interposer_mm": 40}, "solve": {"placement": {"chiplets": 1}}},
	  {"solve": {"placement": {"chiplets": 4, "spacing_mm": 1.0}, "benchmark": "cholesky", "freq_mhz": 111, "cores": 128, "grid_n": 8}},
	  {"cost": {"chiplets": 4, "interposer_mm": 40}}
	]}`
	rec := postJSON(t, h, "/v1/batch", mixed)
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed batch status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, wantStatus := range []int{400, 400, 400, 200} {
		if resp.Items[i].Status != wantStatus {
			t.Errorf("item %d status = %d (%s), want %d", i, resp.Items[i].Status, resp.Items[i].Error, wantStatus)
		}
	}
	if resp.Items[3].Cost == nil {
		t.Error("the valid cost item should still have computed")
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// parseSSE reads "event:"/"data:" frames until EOF (or the reader errors).
func parseSSE(r io.Reader) []sseEvent {
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = sseEvent{}
		}
	}
	return events
}

func TestBatchStreamSSE(t *testing.T) {
	s := testServer(t, nil)
	rec := postJSON(t, s.Handler(), "/v1/batch?stream=1", batchCoalesceBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q, want text/event-stream", ct)
	}
	events := parseSSE(rec.Body)
	items := map[int]BatchItemResult{}
	var done *BatchResponse
	for _, ev := range events {
		switch ev.name {
		case "item":
			var it BatchItemResult
			if err := json.Unmarshal([]byte(ev.data), &it); err != nil {
				t.Fatalf("item event %q: %v", ev.data, err)
			}
			items[it.Index] = it
		case "done":
			done = &BatchResponse{}
			if err := json.Unmarshal([]byte(ev.data), done); err != nil {
				t.Fatalf("done event %q: %v", ev.data, err)
			}
		}
	}
	if len(items) != 4 {
		t.Fatalf("streamed %d item events, want one per item (4)", len(items))
	}
	for i := 0; i < 4; i++ {
		if items[i].Status != http.StatusOK {
			t.Errorf("item %d status = %d (%s)", i, items[i].Status, items[i].Error)
		}
	}
	if done == nil {
		t.Fatal("no done event")
	}
	if done.Total != 4 || done.UniqueKeys != 2 || done.Items != nil {
		t.Errorf("done = %+v, want totals only (items already streamed)", done)
	}
	if items[0].Solve.PeakC != items[1].Solve.PeakC || !items[1].Coalesced {
		t.Errorf("streamed coalesced members diverged: %+v / %+v", items[0], items[1])
	}
}

func TestSearchStreamSSE(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	// auditSearchBody (n=16) runs the multi-start greedy, whose restart and
	// move events are the live progress feed; n=4 takes the restart-free
	// fast path and would stream only the final result.
	rec := postJSON(t, h, "/v1/org/search?stream=1", auditSearchBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	events := parseSSE(rec.Body)
	var progress int
	var result *SearchResponse
	for _, ev := range events {
		switch ev.name {
		case "search":
			progress++
		case "result":
			result = &SearchResponse{}
			if err := json.Unmarshal([]byte(ev.data), result); err != nil {
				t.Fatalf("result event %q: %v", ev.data, err)
			}
		}
	}
	if progress == 0 {
		t.Error("no live search progress events (restarts/incumbents) streamed")
	}
	if result == nil || !result.Feasible || result.Cached {
		t.Fatalf("result = %+v, want a fresh feasible search", result)
	}

	// The streamed search fills the same cache as the plain endpoint: a
	// second stream replays the result without progress events.
	events = parseSSE(postJSON(t, h, "/v1/org/search?stream=1", auditSearchBody).Body)
	progress, result = 0, nil
	for _, ev := range events {
		switch ev.name {
		case "search":
			progress++
		case "result":
			result = &SearchResponse{}
			if err := json.Unmarshal([]byte(ev.data), result); err != nil {
				t.Fatal(err)
			}
		}
	}
	if progress != 0 || result == nil || !result.Cached {
		t.Errorf("warm stream: %d progress events, result %+v; want 0 and a cached result", progress, result)
	}
}

// TestBatchClientDisconnect covers the cancellation contract: dropping the
// connection mid-batch cancels the remaining items, while items that already
// completed stay in the result cache.
func TestBatchClientDisconnect(t *testing.T) {
	s := testServer(t, func(o *Options) { o.Workers = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm item A so the batch answers it instantly from cache; item B is
	// the computation we abandon.
	resp, err := http.Post(ts.URL+"/v1/thermal/solve", "application/json", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Pin the single worker with a big external solve so item B is still
	// queued — not racing to completion — when the client hangs up.
	pinBody := strings.Replace(solveBody, `"grid_n": 8`, `"grid_n": 128`, 1)
	pinBody = strings.Replace(pinBody, `"cores": 128`, `"cores": 32`, 1)
	var pin sync.WaitGroup
	pin.Add(1)
	go func() {
		defer pin.Done()
		resp, err := http.Post(ts.URL+"/v1/thermal/solve", "application/json", strings.NewReader(pinBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer pin.Wait()
	time.Sleep(100 * time.Millisecond)

	slowBody := strings.Replace(solveBody, `"grid_n": 8`, `"grid_n": 32`, 1)
	batch := fmt.Sprintf(`{"items": [{"solve": %s}, {"solve": %s}]}`, solveBody, slowBody)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch?stream=1", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read until item A's completion event, then hang up.
	sc := bufio.NewScanner(resp.Body)
	sawA := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var it BatchItemResult
		if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &it) == nil &&
			it.Index == 0 && it.Status == http.StatusOK && it.Solve != nil {
			sawA = true
			break
		}
	}
	if !sawA {
		t.Fatal("never saw item 0 complete before disconnecting")
	}
	cancel()

	// Completed item A is retained in the cache.
	resp, err = http.Post(ts.URL+"/v1/thermal/solve", "application/json", strings.NewReader(solveBody))
	if err != nil {
		t.Fatal(err)
	}
	var a SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !a.Cached {
		t.Error("item completed before the disconnect was not retained in the cache")
	}

	// Item B's abandoned computation was cancelled, not published: asking
	// for it now computes it fresh (never a cache hit). Immediately after
	// the disconnect a request may briefly join the dying call and inherit
	// its cancellation; retry through that window.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err = http.Post(ts.URL+"/v1/thermal/solve", "application/json", strings.NewReader(slowBody))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var b SolveResponse
			if err := json.Unmarshal(body, &b); err != nil {
				t.Fatal(err)
			}
			if b.Cached {
				t.Error("cancelled item's result appeared in the cache")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("item B never recomputed after the disconnect: %d %s", resp.StatusCode, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitPool polls until s's worker pool runs and queues exactly the given
// numbers of tasks.
func waitPool(t *testing.T, s *Server, running, queued int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for s.pool.Running() != running || s.pool.QueueDepth() != queued {
		if time.Now().After(deadline) {
			t.Fatalf("pool at %d running, %d queued; waited a minute for %d, %d",
				s.pool.Running(), s.pool.QueueDepth(), running, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchShedsUnderFullQueue covers clean shedding: when outside load has
// the admission queue full, batch items report per-item 503s instead of
// failing the whole batch, and the server recovers once the load drains.
func TestBatchShedsUnderFullQueue(t *testing.T) {
	s := testServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
		o.RequestTimeout = 60 * time.Second
	})
	h := s.Handler()

	// Two slow solves occupy the worker and the single queue slot. Each is
	// sent once the pool shows the previous one in place, rather than after
	// a fixed sleep: the solves' length varies with the host's load and the
	// build's speed.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := strings.Replace(solveBody, `"cores": 128`, fmt.Sprintf(`"cores": %d`, 32+32*i), 1)
			body = strings.Replace(body, `"grid_n": 8`, `"grid_n": 64`, 1)
			postJSON(t, h, "/v1/thermal/solve", body)
		}(i)
		waitPool(t, s, 1, i)
	}

	batch := `{"parallelism": 2, "items": [
	  {"solve": {"placement": {"chiplets": 4, "spacing_mm": 1.0}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 96, "grid_n": 8}},
	  {"solve": {"placement": {"chiplets": 4, "spacing_mm": 1.0}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 160, "grid_n": 8}}
	]}`
	rec := postJSON(t, h, "/v1/batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch under load: status = %d, want 200 with per-item errors (body %s)", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, it := range resp.Items {
		switch it.Status {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusOK:
		default:
			t.Errorf("item %d status = %d (%s), want 200 or 503", it.Index, it.Status, it.Error)
		}
	}
	if shed == 0 {
		t.Error("no batch item was shed with 503 despite a full queue")
	}
	wg.Wait()
	waitPool(t, s, 0, 0)

	// Load drained: the identical batch now completes fully.
	rec = postJSON(t, h, "/v1/batch", batch)
	var after BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	for _, it := range after.Items {
		if it.Status != http.StatusOK {
			t.Errorf("after drain: item %d status = %d (%s)", it.Index, it.Status, it.Error)
		}
	}
}

// TestSearchWorkersAutoCap pins the search-worker cap to the schedulable
// Ps, not the CPU count: under GOMAXPROCS(1), extra restart workers would
// only queue behind each other. A search that sets no search_workers gets
// GOMAXPROCS itself, not GOMAXPROCS/Workers: a loaded pool lends no
// helpers, so the CPUs need not be split between searches up front.
func TestSearchWorkersAutoCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	mk := func(field string) *SearchRequest {
		var req SearchRequest
		body := `{"benchmark": "swaptions", "thermal_grid_n": 8, "chiplet_counts": [4], "starts": 1` + field + `}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		return &req
	}
	d := testServer(t, func(o *Options) { o.Workers = 2 })
	if cfg, _, err := d.resolveSearch(mk("")); err != nil || cfg.SearchWorkers != 2 {
		t.Errorf("default search workers = %d (%v) under GOMAXPROCS(2) with 2 pool workers, want 2", cfg.SearchWorkers, err)
	}

	// Per-request pins are capped at GOMAXPROCS, and the cap never forks the
	// cache identity: worker counts are wall-clock knobs, not result inputs.
	runtime.GOMAXPROCS(1)
	s := testServer(t, nil)
	if cfg, _, err := s.resolveSearch(mk("")); err != nil || cfg.SearchWorkers != 1 {
		t.Errorf("default search workers = %d (%v) under GOMAXPROCS(1), want 1", cfg.SearchWorkers, err)
	}
	cfg, keyCapped, err := s.resolveSearch(mk(`, "search_workers": 4`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SearchWorkers != 1 {
		t.Errorf("a search asking for 4 workers resolved to %d under GOMAXPROCS(1), want 1", cfg.SearchWorkers)
	}
	_, keySerial, err := s.resolveSearch(mk(`, "search_workers": 1`))
	if err != nil {
		t.Fatal(err)
	}
	if keyCapped != keySerial {
		t.Error("worker count forked the canonical search key")
	}
}

// TestSearchBorrowsIdleWorkers: a search on an idle daemon borrows the
// pool's idle worker for its calibration simulations and restarts (the
// org.optimize span's helpers attribute), and one issued while every
// other worker is busy borrows nothing and runs serially.
func TestSearchBorrowsIdleWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the search-worker cap is GOMAXPROCS; below 2 no helper may run")
	}
	s := testServer(t, func(o *Options) { o.Workers = 2 })
	helpers := func(seed int) float64 {
		t.Helper()
		body := fmt.Sprintf(`{"benchmark": "swaptions", "thermal_grid_n": 8, "chiplet_counts": [16],
			"interposer_min_mm": 30, "interposer_max_mm": 34, "starts": 4,
			"spatial_surrogate": true, "seed": %d}`, seed)
		rec := postJSON(t, s.Handler(), "/v1/org/search?trace=1", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
		}
		var resp SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		sp := collectSpans(resp.Trace)["org.optimize"]
		if sp == nil {
			t.Fatal("trace has no org.optimize span")
		}
		h, ok := sp.Attrs["helpers"].(float64)
		if !ok {
			t.Fatalf("org.optimize helpers attr = %v", sp.Attrs["helpers"])
		}
		return h
	}
	if h := helpers(1); h < 1 {
		t.Errorf("search on an idle daemon ran %v helpers, want ≥ 1", h)
	}
	if s.pool.Lends() < 1 {
		t.Error("the pool recorded no lend")
	}

	block, started := make(chan struct{}), make(chan struct{})
	go s.pool.Do(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	defer close(block)
	if h := helpers(2); h != 0 {
		t.Errorf("search with every other worker busy ran %v helpers, want 0", h)
	}
}
