package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeDaemon serves every POST with status and body.
func fakeDaemon(t *testing.T, status int, body string) *runner {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	c := newClient(srv.URL)
	t.Cleanup(c.close)
	return &runner{ctx: context.Background(), c: c, t: newTally()}
}

func TestTamperedAnswersCountAsFailures(t *testing.T) {
	spacing := 1.5
	solve := solveJob(solveReq{Placement: placement{Chiplets: 4, SpacingMM: &spacing},
		Benchmark: "swaptions", FreqMHz: 800, Cores: 64, GridN: 8})
	search := job{path: searchPath, class: "cold", body: []byte(`{}`), thresholdC: 85}
	batch := job{path: batchPath, class: "cold", body: []byte(`{}`)}
	cases := []struct {
		name   string
		jb     job
		status int
		answer string
	}{
		{"search winner above its threshold", search, 200,
			`{"feasible": true, "best": {"chiplets": 4, "peak_c": 85.2}, "thermal_sims": 3}`},
		{"feasible search without a winner", search, 200, `{"feasible": true}`},
		{"failed batch item", batch, 200,
			`{"items": [{"status": 200, "solve": {"peak_c": 70}}, {"status": 503, "error": "queue full"}], "total": 2}`},
		{"truncated batch", batch, 200, `{"items": [{"status": 200, "solve": {"peak_c": 70}}], "total": 2}`},
		{"error status", solve, 500, `{"error": "boom"}`},
		{"undecodable answer", solve, 200, `{"peak_c": "hot"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := fakeDaemon(t, tc.status, tc.answer)
			l := &lane{name: "x", prefix: 1}
			r.do(l, 0, tc.jb, time.Now())
			if r.t.attempted != 1 || r.t.failed != 1 {
				t.Fatalf("attempted %d, failed %d; want 1 and 1", r.t.attempted, r.t.failed)
			}
			if len(r.t.lat["cold"]) != 0 {
				t.Error("a failed request was timed")
			}
		})
	}
}

func TestReferenceCheckCatchesTamperedSolve(t *testing.T) {
	spacing := 2.0
	req := solveReq{Placement: placement{Chiplets: 16, SpacingMM: &spacing},
		Benchmark: "canneal", FreqMHz: 533, Cores: 128, GridN: 8}
	want, err := referencePeakC(req)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(peakC float64) []byte {
		return mustJSON(map[string]any{"peak_c": peakC, "cached": false})
	}
	honest := parseAnswer(solveJob(req), 0, answer(want+refTolC/2), true)
	tampered := parseAnswer(solveJob(req), 1, answer(want+10*refTolC), true)
	if len(honest.refs) != 1 || len(tampered.refs) != 1 {
		t.Fatalf("cold solves yield no reference check: %+v %+v", honest, tampered)
	}
	r := fakeDaemon(t, 200, "")
	for range refSolves - 1 {
		r.t.refs = append(r.t.refs, honest.refs[0])
	}
	r.t.refs = append(r.t.refs, tampered.refs[0])
	r.referenceChecks(1, quickSize)
	if r.t.attempted != refSolves || r.t.failed != 1 {
		t.Errorf("attempted %d, failed %d; want %d and 1 (%v)", r.t.attempted, r.t.failed, refSolves, r.t.failures)
	}
}

func TestDigestIgnoresSolverNoise(t *testing.T) {
	a := digestOf(map[string]string{"solve/000": roundC(80.1234561), "solve/001": roundC(70)})
	b := digestOf(map[string]string{"solve/001": roundC(70.0000001), "solve/000": roundC(80.1234559)})
	if a != b {
		t.Errorf("digests differ for answers 1e-6 °C apart: %s %s", a, b)
	}
	if c := digestOf(map[string]string{"solve/000": roundC(80.124), "solve/001": roundC(70)}); c == a {
		t.Error("digest missed a 1e-3 °C change")
	}
}
