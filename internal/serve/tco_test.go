package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/org"
)

const tcoBody = `{"chiplets": 4, "lane_power_w": 220, "lane_gips": 180}`

func TestTCOEndpoint(t *testing.T) {
	s := testServer(t, nil)
	rec := postJSON(t, s.Handler(), "/v1/cost/tco", tcoBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp TCOResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Elab.Feasible || resp.Elab.Reason != cost.ReasonOK {
		t.Fatalf("default 4-chiplet lane should be feasible: %+v", resp.Elab)
	}
	if resp.Fidelity != fidelityAnalytic {
		t.Errorf("fidelity = %q, want %q", resp.Fidelity, fidelityAnalytic)
	}
	if resp.Elab.TCOPerGIPSYear <= 0 {
		t.Errorf("tco_per_gips_year = %g, want positive", resp.Elab.TCOPerGIPSYear)
	}
	if resp.Cached {
		t.Error("first elaboration reported cached = true")
	}
	if !strings.HasPrefix(resp.CacheKey, "tco:") {
		t.Errorf("cache_key = %q, want tco: prefix", resp.CacheKey)
	}

	// The identical request must come back from the cache with the same
	// elaboration, and the monolithic-baseline edge canonicalization must
	// coalesce n=1 requests that differ only in the (ignored) interposer.
	rec2 := postJSON(t, s.Handler(), "/v1/cost/tco", tcoBody)
	var resp2 TCOResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.CacheKey != resp.CacheKey {
		t.Errorf("repeat request not served from cache (cached=%v key=%q)", resp2.Cached, resp2.CacheKey)
	}
	if resp2.Elab != resp.Elab {
		t.Errorf("cached elaboration differs:\n%+v\n%+v", resp2.Elab, resp.Elab)
	}
	a := postJSON(t, s.Handler(), "/v1/cost/tco", `{"chiplets":1,"lane_power_w":100,"lane_gips":80}`)
	b := postJSON(t, s.Handler(), "/v1/cost/tco", `{"chiplets":1,"interposer_mm":30,"lane_power_w":100,"lane_gips":80}`)
	var ra, rb TCOResponse
	if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if ra.CacheKey != rb.CacheKey {
		t.Errorf("monolithic requests with/without interposer_mm should share a key: %q vs %q", ra.CacheKey, rb.CacheKey)
	}
}

// TestTCOTraceCacheAttr pins that a TCO request's trace records the result
// cache's verdict, as solves and searches do, so request logs and
// chiplettop can tell a computed elaboration from a cached one.
func TestTCOTraceCacheAttr(t *testing.T) {
	s := testServer(t, nil)
	for _, want := range []string{"miss", "hit"} {
		rec := postJSON(t, s.Handler(), "/v1/cost/tco?trace=1", tcoBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
		}
		var resp TCOResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Trace == nil {
			t.Fatal("?trace=1 response has no trace")
		}
		if got := resp.Trace.Attrs["cache"]; got != want {
			t.Errorf("trace cache attr = %v, want %s", got, want)
		}
		sp := collectSpans(resp.Trace)["cache.lookup"]
		if sp == nil || sp.Attrs["key"] != resp.CacheKey {
			t.Errorf("cache.lookup span = %+v, want key %q", sp, resp.CacheKey)
		}
	}
}

func TestTCOEndpointBenchmarkWorkload(t *testing.T) {
	s := testServer(t, nil)
	rec := postJSON(t, s.Handler(), "/v1/cost/tco",
		`{"chiplets": 4, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp TCOResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Elab.LanePowerW <= 0 || resp.Elab.LaneGIPS <= 0 {
		t.Fatalf("benchmark workload not derived: %+v", resp.Elab)
	}
}

// TestTCOThermalCheck: the spatial refinement must run at fidelity
// "spatial", report the predicted peak against the heatsink case limit, and
// reject over-threshold designs with ReasonThermal. An impossible case
// limit forces the rejection deterministically.
func TestTCOThermalCheck(t *testing.T) {
	s := testServer(t, nil)
	body := `{"chiplets": 4, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128,
		"thermal_check": true, "grid_n": 8}`
	rec := postJSON(t, s.Handler(), "/v1/cost/tco", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp TCOResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fidelity != fidelitySpatial {
		t.Fatalf("fidelity = %q, want %q", resp.Fidelity, fidelitySpatial)
	}
	if resp.PredPeakC <= 45 {
		t.Errorf("pred_peak_c = %g, want above ambient", resp.PredPeakC)
	}
	if resp.ThresholdC != cost.DefaultHeatsink().MaxCaseC {
		t.Errorf("threshold_c = %g, want the heatsink case limit", resp.ThresholdC)
	}
	if resp.PredPeakC <= resp.ThresholdC && !resp.Elab.Feasible {
		t.Errorf("under-threshold design rejected: %+v", resp.Elab)
	}

	// Monolithic cholesky at 1000 MHz / 128 cores draws 224 W — under the
	// 254.8 W analytic heatsink cap, so the analytic stage accepts it — but
	// the spatial surrogate predicts its hotspot peak just over the 85 °C
	// case limit. That is exactly the dark-silicon gap the refinement
	// exists to catch: uniform-spreading arithmetic says yes, the spatial
	// model says no.
	recHot := postJSON(t, s.Handler(), "/v1/cost/tco",
		`{"chiplets": 1, "benchmark": "cholesky", "freq_mhz": 1000, "cores": 128,
		  "thermal_check": true, "grid_n": 8}`)
	if recHot.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", recHot.Code, recHot.Body)
	}
	var hotResp TCOResponse
	if err := json.Unmarshal(recHot.Body.Bytes(), &hotResp); err != nil {
		t.Fatal(err)
	}
	if hotResp.Fidelity != fidelitySpatial {
		t.Fatalf("hot design not spatially checked: %+v", hotResp)
	}
	if hotResp.PredPeakC <= hotResp.ThresholdC {
		t.Fatalf("pred_peak_c = %g, expected above the %g °C case limit", hotResp.PredPeakC, hotResp.ThresholdC)
	}
	if hotResp.Elab.Feasible || hotResp.Elab.Reason != cost.ReasonThermal {
		t.Errorf("over-threshold design must carry ReasonThermal: %+v", hotResp.Elab)
	}
	if hotResp.Elab.LanePowerW > hotResp.Elab.MaxLanePowerW {
		t.Errorf("rejection should be thermal, not analytic: %g > %g", hotResp.Elab.LanePowerW, hotResp.Elab.MaxLanePowerW)
	}
}

func TestTCOValidationErrors(t *testing.T) {
	s := testServer(t, nil)
	for _, body := range []string{
		`{"chiplets": 3, "lane_power_w": 100, "lane_gips": 50}`, // not a square
		`{"chiplets": 4}`, // no workload
		`{"chiplets": 4, "lane_power_w": 100, "lane_gips": 50, "benchmark": "canneal"}`,                  // both workloads
		`{"chiplets": 4, "lane_power_w": -5, "lane_gips": 50}`,                                           // negative power
		`{"chiplets": 4, "lane_power_w": 100, "lane_gips": 50, "tech_node": "3nm"}`,                      // unknown node
		`{"chiplets": 4, "lane_power_w": 100, "lane_gips": 50, "pue": 0.5}`,                              // PUE < 1
		`{"chiplets": 4, "lane_power_w": 100, "lane_gips": 50, "thermal_check": true}`,                   // check without benchmark
		`{"chiplets": 9, "benchmark": "cholesky", "freq_mhz": 533, "cores": 128, "thermal_check": true}`, // uncovered class
		`{"chiplets": 4, "benchmark": "cholesky", "freq_mhz": 999, "cores": 128}`,                        // off-table frequency
		`{"chiplets": 4, "unknown_field": 1}`,                                                            // strict decoding
	} {
		rec := postJSON(t, s.Handler(), "/v1/cost/tco", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", body, rec.Code, rec.Body)
		}
	}
}

// TestSweepExpandTCO: the fleet-sweep cross product expands in axis order
// (benchmarks x nodes x chiplets x interposer x lanes) and each item takes
// fresh pointers.
func TestSweepExpandTCO(t *testing.T) {
	tpl := SweepTemplate{
		TCO:             &TCORequest{LanePowerW: 200, LaneGIPS: 150},
		TechNodes:       []string{"45nm", "7nm"},
		ChipletsPerLane: []int{1, 4, 16},
		InterposerMM:    []float64{20, 30},
		LanesPerServer:  []int{4, 8},
	}
	items, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2 * 2; len(items) != want {
		t.Fatalf("expanded %d items, want %d", len(items), want)
	}
	seen := map[string]bool{}
	for i, it := range items {
		if it.TCO == nil {
			t.Fatalf("item %d is not a tco item", i)
		}
		if it.TCO.MaxLanesPerServer == nil {
			t.Fatalf("item %d missing the lanes override", i)
		}
		sig := fmt.Sprintf("%s|%d|%g|%d", it.TCO.TechNode, it.TCO.Chiplets, it.TCO.InterposerMM, *it.TCO.MaxLanesPerServer)
		if seen[sig] {
			t.Fatalf("duplicate expansion %s", sig)
		}
		seen[sig] = true
	}
	// Aliasing check: mutating one item's pointer field must not leak.
	*items[0].TCO.MaxLanesPerServer = 99
	if *items[1].TCO.MaxLanesPerServer == 99 {
		t.Fatal("expanded items alias the lanes override")
	}

	// Mixed-kind axis typos fail loudly.
	bad := SweepTemplate{TCO: &TCORequest{LanePowerW: 1, LaneGIPS: 1}, Alphas: []float64{1}}
	if _, err := bad.Expand(); err == nil {
		t.Error("tco base with a search axis must be rejected")
	}
	bad2 := SweepTemplate{Solve: &SolveRequest{}, TechNodes: []string{"7nm"}}
	if _, err := bad2.Expand(); err == nil {
		t.Error("solve base with a tco axis must be rejected")
	}
}

// TestBatchTCOSweep: a tco sweep through /v1/batch must report every item
// OK, coalesce duplicate keys, and agree bit-for-bit with sequential
// /v1/cost/tco calls on the same expansion.
func TestBatchTCOSweep(t *testing.T) {
	s := testServer(t, nil)
	body := `{"sweep": {
		"tco": {"lane_power_w": 200, "lane_gips": 150},
		"tech_nodes": ["45nm", "28nm"],
		"chiplets_per_lane": [1, 4, 16],
		"interposer_mm": [20, 30]
	}}`
	rec := postJSON(t, s.Handler(), "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 12 {
		t.Fatalf("total = %d, want 12", resp.Total)
	}
	// n=1 ignores the interposer axis, so its two edge variants coalesce
	// onto one key per node: 12 items, 10 unique keys.
	if resp.UniqueKeys != 10 {
		t.Errorf("unique_keys = %d, want 10 (monolithic edges coalesce)", resp.UniqueKeys)
	}
	if resp.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", resp.Coalesced)
	}
	tpl := SweepTemplate{
		TCO:             &TCORequest{LanePowerW: 200, LaneGIPS: 150},
		TechNodes:       []string{"45nm", "28nm"},
		ChipletsPerLane: []int{1, 4, 16},
		InterposerMM:    []float64{20, 30},
	}
	items, err := tpl.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Items {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s)", i, res.Status, res.Error)
		}
		if res.Kind != "tco" || res.TCO == nil {
			t.Fatalf("item %d: kind %q, tco %v", i, res.Kind, res.TCO)
		}
		// Sequential ground truth for the same expansion item.
		b, err := json.Marshal(items[i].TCO)
		if err != nil {
			t.Fatal(err)
		}
		seq := postJSON(t, s.Handler(), "/v1/cost/tco", string(b))
		if seq.Code != http.StatusOK {
			t.Fatalf("item %d sequential: status %d (%s)", i, seq.Code, seq.Body)
		}
		var seqResp TCOResponse
		if err := json.Unmarshal(seq.Body.Bytes(), &seqResp); err != nil {
			t.Fatal(err)
		}
		if seqResp.Elab != res.TCO.Elab {
			t.Fatalf("item %d: batch and sequential elaborations differ:\n%+v\n%+v", i, res.TCO.Elab, seqResp.Elab)
		}
		if seqResp.CacheKey != res.TCO.CacheKey {
			t.Fatalf("item %d: batch key %q != sequential key %q", i, res.TCO.CacheKey, seqResp.CacheKey)
		}
	}
}

// TestTCOMetricsAndAudit: fresh elaborations increment the per-fidelity
// counter and land a tco_eval event in the /debug/search audit ring; cache
// hits do neither.
func TestTCOMetricsAndAudit(t *testing.T) {
	s := testServer(t, nil)
	for i := 0; i < 3; i++ { // third request repeats the second: one cache hit
		body := tcoBody
		if i == 0 {
			body = `{"chiplets": 16, "lane_power_w": 150, "lane_gips": 120}`
		}
		if rec := postJSON(t, s.Handler(), "/v1/cost/tco", body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body = %s", i, rec.Code, rec.Body)
		}
	}
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mrec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mrec.Code)
	}
	metrics := mrec.Body.String()
	if !strings.Contains(metrics, `chipletd_tco_evals_total{fidelity="analytic"} 2`) {
		t.Errorf("metrics missing 2 fresh analytic evals:\n%s", grepLines(metrics, "tco_evals"))
	}
	recs := s.audits.snapshot()
	found := 0
	for _, rec := range recs {
		if rec.Trail == nil {
			continue
		}
		for _, ev := range rec.Trail.Events {
			if ev.Kind == org.AuditTCOEval {
				found++
			}
		}
	}
	if found != 2 {
		t.Errorf("audit ring holds %d tco_eval events, want 2", found)
	}
}

// grepLines returns the lines of s containing substr (test failure aid).
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
