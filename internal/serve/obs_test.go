package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/thermal"
)

// collectSpans flattens a span tree into name -> first matching span.
func collectSpans(tr *obs.TraceJSON) map[string]*obs.SpanJSON {
	m := make(map[string]*obs.SpanJSON)
	tr.Walk(func(sp *obs.SpanJSON) {
		if _, ok := m[sp.Name]; !ok {
			m[sp.Name] = sp
		}
	})
	return m
}

// TestSolveTraceInline is the observability acceptance test: ?trace=1
// returns the span tree inline, with cache, queue-wait, floorplan, thermal
// CG (carrying an iteration count), and leakage-loop spans all present.
func TestSolveTraceInline(t *testing.T) {
	s := testServer(t, nil)
	rec := postJSON(t, s.Handler(), "/v1/thermal/solve?trace=1", solveBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("?trace=1 response has no trace")
	}
	if resp.Trace.RequestID != rec.Header().Get("X-Request-Id") {
		t.Errorf("trace request_id %q != header %q", resp.Trace.RequestID, rec.Header().Get("X-Request-Id"))
	}
	if resp.Trace.Route != "thermal_solve" {
		t.Errorf("trace route = %q", resp.Trace.Route)
	}
	if resp.Trace.Attrs["cache"] != "miss" {
		t.Errorf("trace cache attr = %v, want miss", resp.Trace.Attrs["cache"])
	}
	spans := collectSpans(resp.Trace)
	for _, name := range []string{
		"cache.lookup", "pool.queue_wait", "floorplan.build",
		"thermal.model", "power.leakage_loop", "thermal.cg",
	} {
		if spans[name] == nil {
			t.Errorf("trace missing span %q; have %v", name, spanNames(spans))
		}
	}
	if sp := spans["thermal.cg"]; sp != nil {
		if it, ok := sp.Attrs["iterations"].(float64); !ok || it < 1 {
			t.Errorf("thermal.cg iterations attr = %v, want >= 1", sp.Attrs["iterations"])
		}
	}
	if sp := spans["power.leakage_loop"]; sp != nil {
		if it, ok := sp.Attrs["iterations"].(float64); !ok || it < 1 {
			t.Errorf("leakage_loop iterations attr = %v, want >= 1", sp.Attrs["iterations"])
		}
	}
	if sp := spans["cache.lookup"]; sp != nil && sp.Attrs["hit"] != false {
		t.Errorf("cache.lookup hit attr = %v, want false", sp.Attrs["hit"])
	}

	// A second identical request is a cache hit: no solve spans, hit=true.
	rec2 := postJSON(t, s.Handler(), "/v1/thermal/solve?trace=1", solveBody)
	var resp2 SolveResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Trace == nil {
		t.Fatal("cache-hit trace missing")
	}
	spans2 := collectSpans(resp2.Trace)
	if sp := spans2["cache.lookup"]; sp == nil || sp.Attrs["hit"] != true {
		t.Errorf("cache-hit trace: cache.lookup = %+v", sp)
	}
	if spans2["thermal.cg"] != nil {
		t.Error("cache-hit trace contains a thermal.cg span")
	}

	// Without ?trace=1 the response stays lean.
	rec3 := postJSON(t, s.Handler(), "/v1/thermal/solve", solveBody)
	var resp3 SolveResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.Trace != nil {
		t.Error("untraced request returned a trace")
	}
}

func spanNames(m map[string]*obs.SpanJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDebugSolves verifies the flight recorder retains completed request
// traces and serves them newest-first at GET /debug/solves.
func TestDebugSolves(t *testing.T) {
	s := testServer(t, nil)
	rec := postJSON(t, s.Handler(), "/v1/thermal/solve", solveBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d", rec.Code)
	}
	id := rec.Header().Get("X-Request-Id")

	drec := httptest.NewRecorder()
	s.Handler().ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/debug/solves", nil))
	if drec.Code != http.StatusOK {
		t.Fatalf("/debug/solves = %d", drec.Code)
	}
	var out debugSolvesResponse
	if err := json.Unmarshal(drec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) == 0 {
		t.Fatal("/debug/solves recent is empty after a solve")
	}
	tr := out.Recent[0]
	if tr.RequestID != id {
		t.Errorf("newest recorded trace id = %q, want %q", tr.RequestID, id)
	}
	if tr.InProgress {
		t.Error("recorded trace still marked in progress")
	}
	if spans := collectSpans(tr); spans["thermal.cg"] == nil {
		t.Errorf("recorded trace missing thermal.cg span; have %v", spanNames(spans))
	}
}

// TestRequestIDPropagation covers inbound X-Request-Id honoring and the
// request_id field in error bodies (here a 503 from a full queue).
func TestRequestIDPropagation(t *testing.T) {
	s := testServer(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
	})
	h := s.Handler()

	// Inbound ID is echoed back and used for the trace.
	req := httptest.NewRequest(http.MethodPost, "/v1/thermal/solve?trace=1", strings.NewReader(solveBody))
	req.Header.Set("X-Request-Id", "cafe0123deadbeef")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "cafe0123deadbeef" {
		t.Errorf("inbound request id not echoed: got %q", got)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.RequestID != "cafe0123deadbeef" {
		t.Errorf("trace did not carry the inbound request id: %+v", resp.Trace)
	}

	// Errors carry the request id in the JSON body. A malformed request is
	// the simplest deterministic failure.
	brec := postJSON(t, h, "/v1/thermal/solve", `{"benchmark": 42}`)
	if brec.Code != http.StatusBadRequest {
		t.Fatalf("malformed solve = %d", brec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(brec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID == "" || e.RequestID != brec.Header().Get("X-Request-Id") {
		t.Errorf("error body request_id = %q, header = %q", e.RequestID, brec.Header().Get("X-Request-Id"))
	}
}

// TestTraceRingEviction runs more solves than the ring holds and expects
// only the newest to survive, newest first.
func TestTraceRingEviction(t *testing.T) {
	s := testServer(t, func(o *Options) { o.TraceRingSize = 2 })
	h := s.Handler()
	ids := make([]string, 3)
	bodies := []string{
		strings.Replace(solveBody, `"cores": 128`, `"cores": 64`, 1),
		strings.Replace(solveBody, `"cores": 128`, `"cores": 96`, 1),
		solveBody,
	}
	for i, b := range bodies {
		rec := postJSON(t, h, "/v1/thermal/solve", b)
		if rec.Code != http.StatusOK {
			t.Fatalf("solve %d = %d", i, rec.Code)
		}
		ids[i] = rec.Header().Get("X-Request-Id")
	}
	drec := httptest.NewRecorder()
	h.ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/debug/solves", nil))
	var out debugSolvesResponse
	if err := json.Unmarshal(drec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) != 2 {
		t.Fatalf("recent holds %d traces, want 2", len(out.Recent))
	}
	if out.Recent[0].RequestID != ids[2] || out.Recent[1].RequestID != ids[1] {
		t.Errorf("ring order = [%s %s], want [%s %s]",
			out.Recent[0].RequestID, out.Recent[1].RequestID, ids[2], ids[1])
	}
}

// TestObservabilityMetrics checks the new metric families appear in the
// exposition after a solve: iteration histograms, per-stage durations,
// in-flight gauge, and build info.
func TestObservabilityMetrics(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/thermal/solve", solveBody); rec.Code != http.StatusOK {
		t.Fatalf("solve = %d", rec.Code)
	}
	expo := scrape(t, h)
	for _, want := range []string{
		"chipletd_cg_iterations_bucket",
		`chipletd_cg_iterations_count{precond="ic0"} 1`,
		"chipletd_leakage_iterations_count 1",
		`chipletd_stage_duration_seconds_count{stage="thermal.cg"}`,
		`chipletd_stage_duration_seconds_count{stage="cache.lookup"}`,
		`chipletd_inflight_requests{route="thermal_solve"} 0`,
		"chipletd_build_info{",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestCGIterationsPrecondLabel checks the chipletd_cg_iterations label
// names the preconditioner the solve's model ran: IC(0) on a grid-8 solve,
// multigrid on a grid-64 one.
func TestCGIterationsPrecondLabel(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	for _, grid := range []string{`"grid_n": 8`, `"grid_n": 64`} {
		body := strings.Replace(solveBody, `"grid_n": 8`, grid, 1)
		if rec := postJSON(t, h, "/v1/thermal/solve", body); rec.Code != http.StatusOK {
			t.Fatalf("%s solve = %d (body %s)", grid, rec.Code, rec.Body)
		}
	}
	expo := scrape(t, h)
	for _, want := range []string{
		`chipletd_cg_iterations_count{precond="ic0"} 1`,
		`chipletd_cg_iterations_count{precond="mg"} 1`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestModelBytesGauge checks chipletd_model_bytes against the model a
// solve retains: one grid-64 solve raises the gauge by exactly the Bytes()
// of the same model assembled outside the server, and a repeat (a cache
// hit, no new model) leaves it where it is.
func TestModelBytesGauge(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	before := metricValue(t, scrape(t, h), "chipletd_model_bytes")
	body := strings.Replace(solveBody, `"grid_n": 8`, `"grid_n": 64`, 1)
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, h, "/v1/thermal/solve", body); rec.Code != http.StatusOK {
			t.Fatalf("solve = %d (body %s)", rec.Code, rec.Body)
		}
	}
	after := metricValue(t, scrape(t, h), "chipletd_model_bytes")

	var req SolveRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	sp, err := req.resolve(128)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := floorplan.BuildStack(sp.pl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.NewModel(stack, sp.engineConfig().Thermal)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after-before, float64(m.Bytes()); got != want {
		t.Errorf("chipletd_model_bytes rose by %.0f over a grid-64 solve, want the model's Bytes() %.0f", got, want)
	}
}

// TestPprofGating verifies /debug/pprof/ is 404 by default and served when
// enabled.
func TestPprofGating(t *testing.T) {
	off := testServer(t, nil)
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: got %d, want 404", rec.Code)
	}
	on := testServer(t, func(o *Options) { o.EnablePprof = true })
	rec = httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: got %d, want 200", rec.Code)
	}
}

// TestSlowTraceRetention drops the slow threshold to zero-ish so every
// request also lands in the slow ring.
func TestSlowTraceRetention(t *testing.T) {
	s := testServer(t, func(o *Options) { o.SlowTraceThreshold = time.Nanosecond })
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/thermal/solve", solveBody); rec.Code != http.StatusOK {
		t.Fatalf("solve = %d", rec.Code)
	}
	drec := httptest.NewRecorder()
	h.ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/debug/solves", nil))
	var out debugSolvesResponse
	if err := json.Unmarshal(drec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slow) == 0 {
		t.Error("slow ring empty despite nanosecond threshold")
	}
	if out.SlowThresholdMS <= 0 {
		t.Errorf("slow_threshold_ms = %g, want > 0", out.SlowThresholdMS)
	}
}
