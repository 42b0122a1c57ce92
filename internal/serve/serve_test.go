package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer returns a server tuned for fast tests: tiny thermal grids, a
// small pool, and a generous deadline unless overridden.
func testServer(t *testing.T, mutate func(*Options)) *Server {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 4
	opts.QueueDepth = 16
	opts.CacheCapacity = 32
	opts.RequestTimeout = 60 * time.Second
	// Keep test output clean; individual tests can install their own logger.
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if mutate != nil {
		mutate(&opts)
	}
	return New(opts)
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// solveBody is a small-grid solve request (8x8 grid: fast, still exercises
// the full leakage-coupled pipeline).
const solveBody = `{
  "placement": {"chiplets": 4, "s3_mm": 1},
  "benchmark": "cholesky",
  "freq_mhz": 533,
  "cores": 128,
  "grid_n": 8
}`

func TestSolveEndpoint(t *testing.T) {
	s := testServer(t, nil)
	rec := postJSON(t, s.Handler(), "/v1/thermal/solve", solveBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PeakC <= 45 || resp.PeakC > 200 {
		t.Errorf("peak_c = %g, want a physical value above ambient", resp.PeakC)
	}
	if resp.TotalPowerW <= 0 || resp.MeshPowerW <= 0 {
		t.Errorf("powers = (%g, %g), want positive", resp.TotalPowerW, resp.MeshPowerW)
	}
	if resp.CGIterations <= 0 {
		t.Errorf("cg_iterations = %d, want > 0", resp.CGIterations)
	}
	if resp.Cached {
		t.Error("first solve reported cached = true")
	}
	if !strings.HasPrefix(resp.CacheKey, "solve:") {
		t.Errorf("cache_key = %q, want solve: prefix", resp.CacheKey)
	}
}

// metricValue extracts one sample value from a Prometheus exposition.
func metricValue(t *testing.T, expo, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " ([0-9.e+-]+)$")
	m := re.FindStringSubmatch(expo)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %s value %q: %v", sample, m[1], err)
	}
	return v
}

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	return rec.Body.String()
}

// TestSolveCacheHit is the acceptance test: a repeated identical request is
// answered from the cache, observable both in the response body and in the
// /metrics counters.
func TestSolveCacheHit(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()

	rec1 := postJSON(t, h, "/v1/thermal/solve", solveBody)
	if rec1.Code != http.StatusOK {
		t.Fatalf("first solve = %d, body = %s", rec1.Code, rec1.Body)
	}
	rec2 := postJSON(t, h, "/v1/thermal/solve", solveBody)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second solve = %d, body = %s", rec2.Code, rec2.Body)
	}
	var r1, r2 SolveResponse
	if err := json.Unmarshal(rec1.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Errorf("cached flags = (%v, %v), want (false, true)", r1.Cached, r2.Cached)
	}
	if r1.CacheKey != r2.CacheKey {
		t.Errorf("cache keys differ: %q vs %q", r1.CacheKey, r2.CacheKey)
	}
	if r1.PeakC != r2.PeakC {
		t.Errorf("cached peak %g != computed peak %g", r2.PeakC, r1.PeakC)
	}

	expo := scrape(t, h)
	if v := metricValue(t, expo, `chipletd_cache_hits_total{endpoint="thermal_solve"}`); v != 1 {
		t.Errorf("cache hits = %v, want 1\n%s", v, expo)
	}
	if v := metricValue(t, expo, `chipletd_cache_misses_total{endpoint="thermal_solve"}`); v != 1 {
		t.Errorf("cache misses = %v, want 1", v)
	}
	if v := metricValue(t, expo, `chipletd_thermal_sims_total`); v != 1 {
		t.Errorf("thermal sims = %v, want 1 (the hit must not re-simulate)", v)
	}
	if v := metricValue(t, expo, `chipletd_requests_total{endpoint="thermal_solve",code="200"}`); v != 2 {
		t.Errorf("requests = %v, want 2", v)
	}
	if v := metricValue(t, expo, `chipletd_cg_iterations_total`); v <= 0 {
		t.Errorf("cg iterations = %v, want > 0", v)
	}
}

// TestSolveKeyNormalization: field order and formatting must not change the
// content address, while a real parameter change must.
func TestSolveKeyNormalization(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	reordered := `{"grid_n": 8, "cores": 128, "freq_mhz": 533.0, "benchmark": "cholesky",
	               "placement": {"s3_mm": 1.0, "chiplets": 4}}`
	changed := `{"grid_n": 8, "cores": 96, "freq_mhz": 533, "benchmark": "cholesky",
	             "placement": {"chiplets": 4, "s3_mm": 1}}`

	var base, same, diff SolveResponse
	for body, dst := range map[string]*SolveResponse{solveBody: &base, reordered: &same, changed: &diff} {
		rec := postJSON(t, h, "/v1/thermal/solve", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve = %d, body = %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
			t.Fatal(err)
		}
	}
	if base.CacheKey != same.CacheKey {
		t.Errorf("reordered request got a different key: %q vs %q", same.CacheKey, base.CacheKey)
	}
	if base.CacheKey == diff.CacheKey {
		t.Error("different cores count got the same cache key")
	}
}

// TestConcurrentSolves hammers one key and several distinct keys in
// parallel (run with -race); the identical requests must collapse to few
// simulations via singleflight + cache.
func TestConcurrentSolves(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := solveBody
			if i%2 == 1 { // half the goroutines use a distinct-cores variant
				body = strings.Replace(solveBody, `"cores": 128`, fmt.Sprintf(`"cores": %d`, 32+32*i), 1)
			}
			rec := postJSON(t, h, "/v1/thermal/solve", body)
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("goroutine %d: status %d body %s", i, rec.Code, rec.Body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	expo := scrape(t, h)
	sims := metricValue(t, expo, "chipletd_thermal_sims_total")
	// 5 distinct keys (cores 128 plus four odd variants); dedup must keep
	// simulations at the distinct-key count.
	if sims > 5 {
		t.Errorf("thermal sims = %v, want <= 5 with singleflight dedup", sims)
	}
}

func TestSolveMalformedJSON(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	for name, body := range map[string]string{
		"syntax":        `{"placement": `,
		"unknown_field": `{"bogus": 1}`,
		"trailing":      solveBody + `{"again": true}`,
		"bad_benchmark": `{"placement": {"chiplets": 1}, "benchmark": "nope", "freq_mhz": 533, "cores": 128, "grid_n": 8}`,
		"bad_freq":      `{"placement": {"chiplets": 1}, "benchmark": "cholesky", "freq_mhz": 123, "cores": 128, "grid_n": 8}`,
		"bad_cores":     `{"placement": {"chiplets": 1}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 1000, "grid_n": 8}`,
		"bad_grid":      `{"placement": {"chiplets": 1}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 7}`,
		"huge_grid":     `{"placement": {"chiplets": 1}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 4096}`,
		"bad_chiplets":  `{"placement": {"chiplets": 3, "spacing_mm": 1}, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "grid_n": 8}`,
	} {
		rec := postJSON(t, h, "/v1/thermal/solve", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error envelope missing in %s", name, rec.Body)
		}
	}
	expo := scrape(t, h)
	if v := metricValue(t, expo, `chipletd_requests_total{endpoint="thermal_solve",code="400"}`); v != 9 {
		t.Errorf("400 count = %v, want 9", v)
	}
}

// TestSolveDeadline forces an unmeetable deadline and expects 504.
func TestSolveDeadline(t *testing.T) {
	s := testServer(t, func(o *Options) { o.RequestTimeout = time.Millisecond })
	// grid_n 64 takes far longer than 1 ms.
	body := strings.Replace(solveBody, `"grid_n": 8`, `"grid_n": 64`, 1)
	rec := postJSON(t, s.Handler(), "/v1/thermal/solve", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	expo := scrape(t, s.Handler())
	if v := metricValue(t, expo, `chipletd_requests_total{endpoint="thermal_solve",code="504"}`); v != 1 {
		t.Errorf("504 count = %v, want 1", v)
	}
}

// searchBody is a deliberately tiny search: one chiplet count, one
// interposer edge, coarse grid, surrogate margin -1 forces the cheap path.
const searchBody = `{
  "benchmark": "swaptions",
  "threshold_c": 85,
  "chiplet_counts": [4],
  "interposer_min_mm": 30,
  "interposer_max_mm": 30,
  "starts": 1,
  "thermal_grid_n": 8,
  "surrogate_margin_c": -1
}`

func TestSearchEndpoint(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	rec := postJSON(t, h, "/v1/org/search", searchBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Feasible || resp.Best == nil {
		t.Fatalf("search infeasible: %s", rec.Body)
	}
	if resp.Best.Chiplets != 4 {
		t.Errorf("best chiplets = %d, want 4", resp.Best.Chiplets)
	}
	if resp.Best.PeakC <= 45 {
		t.Errorf("best peak = %g, want above ambient", resp.Best.PeakC)
	}
	if resp.ThermalSims <= 0 || resp.CGIterations <= 0 {
		t.Errorf("observability: sims=%d cg=%d, want > 0", resp.ThermalSims, resp.CGIterations)
	}

	// Identical search again: must be a cache hit without new simulations.
	simsBefore := metricValue(t, scrape(t, h), "chipletd_thermal_sims_total")
	rec2 := postJSON(t, h, "/v1/org/search", searchBody)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second search = %d", rec2.Code)
	}
	var resp2 SearchResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Error("second identical search was not a cache hit")
	}
	expo := scrape(t, h)
	if v := metricValue(t, expo, `chipletd_cache_hits_total{endpoint="org_search"}`); v != 1 {
		t.Errorf("search cache hits = %v, want 1", v)
	}
	if v := metricValue(t, expo, "chipletd_thermal_sims_total"); v != simsBefore {
		t.Errorf("cache hit ran %v new sims", v-simsBefore)
	}
}

func TestSearchBadRequest(t *testing.T) {
	s := testServer(t, nil)
	for name, body := range map[string]string{
		"no_benchmark": `{"threshold_c": 85}`,
		"unknown":      `{"benchmark": "swaptions", "wat": 1}`,
		"huge_grid":    `{"benchmark": "swaptions", "thermal_grid_n": 4096}`,
		// Removed solver and search knobs: a stale body fails loudly.
		"warm_start":       `{"benchmark": "swaptions", "warm_start": true}`,
		"warm_start_cache": `{"benchmark": "swaptions", "warm_start_cache": 8}`,
		"preconditioner":   `{"benchmark": "swaptions", "preconditioner": "mg"}`,
		"kernel_threads":   `{"benchmark": "swaptions", "kernel_threads": 2}`,
		"parallel_workers": `{"benchmark": "swaptions", "parallel_workers": 2}`,
		"spatial_margin_c": `{"benchmark": "swaptions", "spatial_margin_c": 1}`,
	} {
		rec := postJSON(t, s.Handler(), "/v1/org/search", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
	}
}

// TestSearchDeadline cancels a search mid-flight via the request deadline.
func TestSearchDeadline(t *testing.T) {
	s := testServer(t, func(o *Options) { o.RequestTimeout = 5 * time.Millisecond })
	// A full-size search (64 grid, both counts) cannot finish in 5 ms.
	rec := postJSON(t, s.Handler(), "/v1/org/search", `{"benchmark": "swaptions"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
}

func TestCostEndpoint(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	rec := postJSON(t, h, "/v1/cost", `{"chiplets": 16, "interposer_mm": 40}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp CostResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CostUSD <= 0 || resp.SingleChipUSD <= 0 {
		t.Fatalf("non-positive costs: %+v", resp)
	}
	if resp.NormCost != resp.CostUSD/resp.SingleChipUSD {
		t.Errorf("norm_cost inconsistent: %+v", resp)
	}
	// Smaller dies yield better (Eq. (2)): 16 chiplets beat the monolithic die.
	if resp.ChipletYield <= resp.SingleChipYield {
		t.Errorf("chiplet yield %g should exceed single-chip yield %g",
			resp.ChipletYield, resp.SingleChipYield)
	}

	rec = postJSON(t, h, "/v1/cost", `{"chiplets": 1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("2D cost status = %d", rec.Code)
	}
	var base CostResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	if base.NormCost != 1 || base.CostUSD != base.SingleChipUSD {
		t.Errorf("2D baseline not normalized: %+v", base)
	}

	for name, body := range map[string]string{
		"bad_count":      `{"chiplets": 9, "interposer_mm": 40}`,
		"tiny_edge":      `{"chiplets": 4, "interposer_mm": 1}`,
		"huge_edge":      `{"chiplets": 4, "interposer_mm": 99}`,
		"bad_params":     `{"chiplets": 4, "interposer_mm": 40, "d0_per_cm2": -1}`,
		"malformed_json": `{`,
	} {
		rec := postJSON(t, h, "/v1/cost", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["status"] != "ok" {
		t.Fatalf("healthz body = %s", rec.Body)
	}
	// Build info + uptime ride along for fleet debugging.
	for _, k := range []string{"version", "revision", "go_version", "uptime_seconds"} {
		if _, ok := body[k]; !ok {
			t.Errorf("healthz body missing %q: %s", k, rec.Body)
		}
	}
	if up, ok := body["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("healthz uptime_seconds = %v", body["uptime_seconds"])
	}
}

// TestQueueFull floods a 1-worker/1-slot server with slow searches and
// expects load shedding with 503 for the overflow.
func TestQueueFull(t *testing.T) {
	s := testServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
		o.RequestTimeout = 10 * time.Second
	})
	h := s.Handler()
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct keys so singleflight cannot merge them; grid 32 keeps
			// each solve slow enough that the flood outpaces the one worker.
			body := strings.Replace(solveBody, `"cores": 128`, fmt.Sprintf(`"cores": %d`, 32*(i%8)+32), 1)
			body = strings.Replace(body, `"grid_n": 8`, `"grid_n": 32`, 1)
			rec := postJSON(t, h, "/v1/thermal/solve", body)
			codes <- rec.Code
		}(i)
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	if shed == 0 {
		t.Error("no request was shed with 503 despite queue depth 1")
	}
}

// TestMethodNotAllowed guards the method-qualified routes.
func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/thermal/solve", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on solve = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", bytes.NewReader(nil)))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST on metrics = %d, want 405", rec.Code)
	}
}
