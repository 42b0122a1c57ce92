package org

import (
	"math"
	"sync"
	"time"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/power"
)

// Search convergence audit trail: a bounded, per-request event log of what
// the search machinery actually did — which restart was seeded from what,
// which moves the greedy walk accepted or rejected, which fidelity tier
// decided each evaluation and by what margin, and how the engine memo
// answered. The aggregate counters (ThermalSims, SurrogateHits, ...) say
// how much work a search did; the audit trail says why. It is opt-in and
// bounded (drop-oldest), so an enabled trail costs one ring slot per event
// and a disabled one (nil *AuditLog) costs a nil check.

// Audit event kinds.
const (
	AuditRestartSeeded = "restart_seeded"
	AuditMoveAccepted  = "move_accepted"
	AuditMoveRejected  = "move_rejected"
	AuditFeasibleFound = "feasible_found"
	AuditEval          = "eval"
	// AuditTCOEval is one server TCO elaboration (recorded by serving
	// layers that answer /v1/cost/tco, not by the search itself).
	AuditTCOEval = "tco_eval"
)

// AuditEvent is one entry of the search audit trail. Fields are a union
// over event kinds; unused ones are omitted from JSON.
type AuditEvent struct {
	Seq  uint64  `json:"seq"`
	AtMS float64 `json:"at_ms"` // since the log was created (request start)
	Kind string  `json:"kind"`

	// Search coordinates.
	Restart int     `json:"restart,omitempty"`
	Step    int     `json:"step,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	N       int     `json:"n,omitempty"`
	EdgeMM  float64 `json:"edge_mm,omitempty"`
	S1MM    float64 `json:"s1_mm,omitempty"`
	S2MM    float64 `json:"s2_mm,omitempty"`
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	Cores   int     `json:"active_cores,omitempty"`

	// Evaluation outcome.
	Fidelity string  `json:"fidelity,omitempty"`
	PeakC    float64 `json:"peak_c,omitempty"`
	PredC    float64 `json:"pred_c,omitempty"`
	BoundC   float64 `json:"bound_c,omitempty"`
	MarginC  float64 `json:"margin_c,omitempty"`
	Reason   string  `json:"reason,omitempty"`
	MemoHits int     `json:"memo_hits,omitempty"`
	Dedup    int     `json:"dedup_waits,omitempty"`
	Sims     int     `json:"sims,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// AuditLog is a bounded, concurrency-safe event ring. The zero capacity and
// the nil receiver both disable recording, so call sites need no guards.
type AuditLog struct {
	mu      sync.Mutex
	start   time.Time
	events  []AuditEvent // ring storage
	head    int          // index of the oldest event when full
	size    int
	seq     uint64
	dropped uint64
	// notify, when set, observes every recorded event after it is stamped
	// (outside the lock). Live consumers — the SSE streaming layer — use it
	// to forward restart/incumbent updates as they land.
	notify func(AuditEvent)
}

// NewAuditLog builds a log holding the most recent capacity events;
// capacity <= 0 returns nil (recording disabled).
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		return nil
	}
	return &AuditLog{start: time.Now(), events: make([]AuditEvent, capacity)}
}

// WithNotify installs a live observer called with every recorded event
// (after stamping, outside the ring lock). The callback must be fast and
// non-blocking — it runs on the search's evaluation path. Nil-safe: on a
// nil log it is a no-op returning nil, so the disabled path stays disabled.
func (l *AuditLog) WithNotify(fn func(AuditEvent)) *AuditLog {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.notify = fn
	l.mu.Unlock()
	return l
}

// Add records one event, evicting the oldest when full. No-op on nil.
func (l *AuditLog) Add(ev AuditEvent) {
	if l == nil {
		return
	}
	// A non-finite peak (an invalid placement, or a runaway leakage loop)
	// has no JSON encoding; the event's other fields say which it was.
	if math.IsInf(ev.PeakC, 0) || math.IsNaN(ev.PeakC) {
		ev.PeakC = 0
	}
	now := time.Now()
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	ev.AtMS = float64(now.Sub(l.start)) / float64(time.Millisecond)
	if l.size < len(l.events) {
		l.events[(l.head+l.size)%len(l.events)] = ev
		l.size++
	} else {
		l.events[l.head] = ev
		l.head = (l.head + 1) % len(l.events)
		l.dropped++
	}
	notify := l.notify
	l.mu.Unlock()
	if notify != nil {
		notify(ev)
	}
}

// Events returns the retained events oldest-first. Nil-safe (returns nil).
func (l *AuditLog) Events() []AuditEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEvent, 0, l.size)
	for i := 0; i < l.size; i++ {
		out = append(out, l.events[(l.head+i)%len(l.events)])
	}
	return out
}

// Len returns the number of retained events; Dropped the number evicted.
func (l *AuditLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Dropped returns how many events were evicted from a full ring.
func (l *AuditLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// AuditTrail is the serialized form: the retained events plus how many the
// ring evicted, so a truncated trail is distinguishable from a complete one.
type AuditTrail struct {
	Events  []AuditEvent `json:"events"`
	Dropped uint64       `json:"dropped,omitempty"`
}

// Trail snapshots the log into its serialized form. Nil-safe (returns nil).
func (l *AuditLog) Trail() *AuditTrail {
	if l == nil {
		return nil
	}
	return &AuditTrail{Events: l.Events(), Dropped: l.Dropped()}
}

// evalEvent records one evaluation outcome (kind "eval"). Called on the
// searcher's evaluation path; nil-safe so the disabled path costs only the
// receiver check.
func (l *AuditLog) evalEvent(pl floorplan.Placement, op power.DVFSPoint, p int, peak float64, st EvalStats, err error) {
	if l == nil {
		return
	}
	ev := AuditEvent{
		Kind:     AuditEval,
		N:        pl.NumChiplets(),
		EdgeMM:   pl.W,
		S1MM:     pl.S1,
		S2MM:     pl.S2,
		FreqMHz:  op.FreqMHz,
		Cores:    p,
		Fidelity: st.Fidelity.String(),
		PeakC:    peak,
		Reason:   st.Reason,
		MemoHits: st.MemoHits,
		Dedup:    st.DedupWaits,
		Sims:     st.Sims,
	}
	if st.SpatialConsulted {
		ev.PredC = st.SpatialPredC
		ev.BoundC = st.SpatialBoundC
		ev.MarginC = st.SpatialMarginC
	}
	if err != nil {
		ev.Err = err.Error()
	}
	l.Add(ev)
}
