package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"chiplet25d/internal/obs"
	"chiplet25d/internal/org"
)

// errStreamUnsupported reports a ResponseWriter that cannot flush, which
// SSE requires.
var errStreamUnsupported = errors.New("streaming unsupported by this connection")

// Server-sent-event streaming for long-running requests: ?stream=1 on
// POST /v1/org/search emits live search progress (restart seeds, accepted
// moves, feasible incumbents) fed from the audit ring's notify hook, and on
// POST /v1/batch emits per-item completion events as items finish instead
// of one response after the whole batch. SSE over plain HTTP keeps clients
// trivial (curl -N works) and needs nothing beyond http.Flusher.

// wantStream reports whether the client asked for SSE streaming (?stream=1).
func wantStream(r *http.Request) bool { return r.URL.Query().Get("stream") == "1" }

// sseSink serializes server-sent events onto one response. Writes are
// synchronous under a mutex: audit callbacks fire from search workers while
// the handler goroutine writes item events, and interleaved frames would
// corrupt the stream. After the first write error the sink goes quiet (the
// client is gone; the computation keeps running for other cache waiters).
type sseSink struct {
	mu  sync.Mutex
	w   http.ResponseWriter
	fl  http.Flusher
	err error
}

// newSSESink prepares the response for event streaming. Returns nil when
// the ResponseWriter cannot flush — the caller should fall back to a plain
// JSON response.
func newSSESink(w http.ResponseWriter) *sseSink {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &sseSink{w: w, fl: fl}
}

// send emits one `event:`/`data:` frame with v as JSON. Safe for concurrent
// use; errors are sticky.
func (s *sseSink) send(event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(b, '\n', '\n')); err != nil {
		s.err = err
		return
	}
	s.fl.Flush()
}

// streamErrorEvent is the `error` event payload.
type streamErrorEvent struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"request_id,omitempty"`
}

// streamSearch runs one search with live audit events on the wire:
// `search` events as the optimizer works, then a final `result` (the same
// SearchResponse the plain endpoint returns) or `error` event. A response
// already in the result cache yields the result event immediately with no
// progress events — the trail rode the cached value, nothing is recomputed.
func (s *Server) streamSearch(w http.ResponseWriter, r *http.Request, ctx context.Context, cfg org.Config, exhaustive bool, key string, start time.Time) {
	const endpoint = "org_search"
	sink := newSSESink(w)
	if sink == nil {
		s.fail(w, r, endpoint, http.StatusInternalServerError,
			errStreamUnsupported, start)
		return
	}
	// The status code is already on the wire; the request counter records
	// the computation's outcome instead.
	notify := func(ev org.AuditEvent) {
		if ev.Kind != org.AuditEval {
			// Per-evaluation events are too chatty for the wire (thousands per
			// search); the ring keeps them for ?audit=1 and /debug/search.
			sink.send("search", ev)
		}
	}
	resp, err := lookup[SearchResponse](s, ctx, r, endpoint, key, start,
		s.searchComputer(cfg, exhaustive, key, notify))
	if err != nil {
		code := errStatus(err)
		s.requests.With(endpoint, statusLabel(code)).Inc()
		sink.send("error", streamErrorEvent{Error: err.Error(), Status: code, RequestID: obs.RequestID(r.Context())})
		return
	}
	if !wantAudit(r) {
		resp.Audit = nil
	}
	s.requests.With(endpoint, statusLabel(http.StatusOK)).Inc()
	s.solveLatency.Observe(time.Since(start).Seconds())
	sink.send("result", resp)
}
