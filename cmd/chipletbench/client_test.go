package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// lateRecorder mimics chipletd's middleware, which records a trace in the
// flight recorder only after the response is written: the trace of a batch
// appears in GET /debug/solves only on the recordAfter-th poll.
type lateRecorder struct {
	mu          sync.Mutex
	polls       int
	recordAfter int // 0: never
}

func (l *lateRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	l.polls++
	recorded := l.recordAfter > 0 && l.polls >= l.recordAfter
	l.mu.Unlock()
	recent := []*traceDoc{{RequestID: "other", Spans: []*span{}}}
	if recorded {
		recent = append([]*traceDoc{{RequestID: "sweep-4", DurationMS: 3,
			Spans: []*span{sp("batch.item", 0, 3)}}}, recent...)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"slow_threshold_ms": 2000, "recent": recent, "slow": []any{}})
}

func TestFetchTraceWaitsForLateRecording(t *testing.T) {
	for _, after := range []int{1, 4, traceFetchPolls} {
		rec := &lateRecorder{recordAfter: after}
		srv := httptest.NewServer(rec)
		c := newClient(srv.URL)
		tr, err := c.fetchTrace(context.Background(), "sweep-4")
		if err != nil || tr.RequestID != "sweep-4" || len(tr.Spans) != 1 {
			t.Errorf("recorded on poll %d: got %+v, %v", after, tr, err)
		}
		if rec.polls != after {
			t.Errorf("recorded on poll %d: polled %d times", after, rec.polls)
		}
		c.close()
		srv.Close()
	}
}

func TestFetchTraceGivesUp(t *testing.T) {
	rec := &lateRecorder{}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	if _, err := c.fetchTrace(context.Background(), "sweep-4"); err == nil {
		t.Fatal("found a trace that was never recorded")
	}
	if rec.polls != traceFetchPolls {
		t.Errorf("polled %d times, want %d", rec.polls, traceFetchPolls)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP chipletd_cache_hits_total Requests answered from the cache.
# TYPE chipletd_cache_hits_total counter
chipletd_cache_hits_total{endpoint="thermal_solve"} 7
chipletd_cache_hits_total{endpoint="org_search"} 2
chipletd_cache_hits_total_other 100
chipletd_tco_evals_total{fidelity="spatial"} 36
chipletd_tco_evals_total{fidelity="analytic"} 4
chipletd_leakage_iterations_sum 12.5
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"chipletd_cache_hits_total":                    9,
		`chipletd_tco_evals_total{fidelity="spatial"}`: 36,
		"chipletd_leakage_iterations_sum":              12.5,
		"chipletd_missing_total":                       0,
	} {
		if got := s.total(series); got != want {
			t.Errorf("total(%s) = %g, want %g", series, got, want)
		}
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("accepted a line without a value")
	}
}
