package main

import (
	"math"
	"testing"
)

func sp(name string, start, dur float64, children ...*span) *span {
	return &span{Name: name, StartMS: start, DurationMS: dur, Children: children}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name    string
		tr      *traceDoc
		self    map[string]float64
		covered float64
	}{
		{
			name: "overlapping children",
			tr: &traceDoc{DurationMS: 12, Spans: []*span{
				sp("cache.lookup", 1, 10, sp("engine.lookup", 2, 3), sp("engine.sim", 4, 4)),
			}},
			// The parent loses the union [2, 8) of its children, not 3+4.
			self:    map[string]float64{"cache.lookup": 4, "engine.lookup": 3, "engine.sim": 4},
			covered: 10,
		},
		{
			name: "concurrent batch items",
			tr: &traceDoc{DurationMS: 14, Spans: []*span{
				sp("batch.item", 0, 10, sp("engine.lookup", 1, 8)),
				sp("batch.item", 2, 10, sp("engine.lookup", 3, 8)),
			}},
			self:    map[string]float64{"batch.item": 4, "engine.lookup": 16},
			covered: 12,
		},
		{
			name: "retroactive queue wait starting before its parent",
			tr: &traceDoc{DurationMS: 10, Spans: []*span{
				sp("cache.lookup", 1, 9, sp("pool.queue_wait", 0.5, 1.5), sp("engine.lookup", 2, 7)),
			}},
			self:    map[string]float64{"cache.lookup": 1, "pool.queue_wait": 1, "engine.lookup": 7},
			covered: 9,
		},
		{
			// A CG solve still running at the snapshot: the daemon measures
			// it up to the snapshot, which can fall after the trace's end.
			name: "span in progress at the snapshot",
			tr: &traceDoc{DurationMS: 8, Spans: []*span{
				sp("power.leakage_loop", 0, 8, sp("thermal.cg", 5, 10)),
			}},
			self:    map[string]float64{"power.leakage_loop": 5, "thermal.cg": 3},
			covered: 8,
		},
		{
			name: "childless wrapper adopts the siblings it contains",
			tr: &traceDoc{DurationMS: 101, Spans: []*span{
				sp("cache.lookup", 0, 101,
					sp("pool.queue_wait", 0.5, 0.5),
					sp("org.optimize", 1, 99),
					sp("org.baseline", 1, 49, sp("engine.sim", 2, 40)),
					sp("org.find_placement", 60, 30)),
			}},
			self: map[string]float64{
				"cache.lookup": 1.5, "pool.queue_wait": 0.5, "org.optimize": 20,
				"org.baseline": 9, "engine.sim": 40, "org.find_placement": 30,
			},
			covered: 101,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			self := map[string]float64{}
			covered, err := selfTimes(tc.tr, self)
			if err != nil {
				t.Fatal(err)
			}
			if !near(covered, tc.covered) {
				t.Errorf("covered %g, want %g", covered, tc.covered)
			}
			for name, want := range tc.self {
				if !near(self[name], want) {
					t.Errorf("%s self %g, want %g (all: %v)", name, self[name], want, self)
				}
			}
		})
	}
}

func TestTraceAccRejectsDroppedSpans(t *testing.T) {
	var a traceAcc
	tr := &traceDoc{RequestID: "x", DurationMS: 5, SpansDropped: 3, Spans: []*span{sp("org.restart", 0, 5)}}
	if err := a.add(tr, 6, false); err == nil {
		t.Fatal("a trace with dropped spans was accepted")
	}
	if a.dropped != 3 || a.self["org.restart"] != 0 || a.clientMS != 0 {
		t.Errorf("rejected trace leaked into the totals: %+v", a)
	}
}

func TestShares(t *testing.T) {
	var a traceAcc
	// A solve: 1 ms of HTTP and JSON around 9 ms of spans.
	solve := &traceDoc{DurationMS: 9.5, Spans: []*span{
		sp("cache.lookup", 0, 9, sp("pool.queue_wait", 0, 1), sp("thermal.cg", 1, 6), sp("peer.fetch", 7, 1)),
	}}
	if err := a.add(solve, 10, false); err != nil {
		t.Fatal(err)
	}
	share, conc := a.shares([]string{"cache.lookup", "pool.queue_wait", "thermal.cg"})
	want := map[string]float64{
		"cache.lookup": 0.1, "pool.queue_wait": 0.1, "thermal.cg": 0.6,
		"other": 0.1, "unattributed": 0.1,
	}
	for name, w := range want {
		if !near(share[name], w) {
			t.Errorf("%s share %g, want %g", name, share[name], w)
		}
	}
	if !near(conc, 1) {
		t.Errorf("serial request concurrency %g, want 1", conc)
	}
	if len(a.queueWaits) != 1 || a.queueWaits[0] != 1 {
		t.Errorf("queue waits %v, want [1]", a.queueWaits)
	}
	// A parallel batch adds self time beyond its wall time, and its queue
	// waits are not the admission waits the tail reports.
	batch := &traceDoc{DurationMS: 10, Spans: []*span{
		sp("batch.item", 0, 10, sp("pool.queue_wait", 0, 2)), sp("batch.item", 0, 10),
	}}
	if err := a.add(batch, 10, true); err != nil {
		t.Fatal(err)
	}
	if _, conc := a.shares(nil); !near(conc, 1.5) {
		t.Errorf("concurrency with a 2-wide batch %g, want 1.5", conc)
	}
	if len(a.queueWaits) != 1 {
		t.Errorf("batch queue waits were kept: %v", a.queueWaits)
	}
}
