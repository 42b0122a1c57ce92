package main

import (
	"fmt"
	"sort"
)

// span and traceDoc mirror the span tree chipletd serializes for ?trace=1
// and GET /debug/solves. Times are milliseconds from the trace start; a
// span still in progress at the snapshot reports its duration so far.
type span struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	Children   []*span `json:"children"`
}

type traceDoc struct {
	RequestID    string  `json:"request_id"`
	DurationMS   float64 `json:"duration_ms"`
	SpansDropped int     `json:"spans_dropped"`
	Spans        []*span `json:"spans"`
}

// interval is a time range [lo, hi) in milliseconds.
type interval struct{ lo, hi float64 }

// clip bounds sp's interval to [lo, hi); ok is false when nothing is left.
func clip(sp *span, lo, hi float64) (interval, bool) {
	iv := interval{max(sp.StartMS, lo), min(sp.StartMS+sp.DurationMS, hi)}
	return iv, iv.hi > iv.lo
}

// unionLen returns the length of the union of ivs. It sorts ivs.
func unionLen(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total := 0.0
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = iv
		case iv.hi > cur.hi:
			cur.hi = iv.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// adopt returns siblings with each childless span that wholly contains the
// siblings after it made their parent. The daemon opens some spans
// (org.optimize) without handing their context to the work inside, so that
// work is recorded as their siblings, not their children.
func adopt(siblings []*span) []*span {
	ns := append([]*span(nil), siblings...)
	sort.SliceStable(ns, func(i, j int) bool {
		if ns[i].StartMS != ns[j].StartMS {
			return ns[i].StartMS < ns[j].StartMS
		}
		return ns[i].DurationMS > ns[j].DurationMS
	})
	var out []*span
	var wrapper *span // the childless span adopting the spans it contains
	for _, sp := range ns {
		if wrapper != nil && sp.StartMS+sp.DurationMS <= wrapper.StartMS+wrapper.DurationMS {
			wrapper.Children = append(wrapper.Children, sp)
			continue
		}
		wrapper = nil
		if len(sp.Children) == 0 {
			cp := *sp
			wrapper, sp = &cp, &cp
		}
		out = append(out, sp)
	}
	return out
}

// selfTimes adds the self time of every span in tr to self, keyed by span
// name, and returns the time the trace's top-level spans cover.
//
// A span's self time is its duration minus the union of its children's
// intervals. Each child is first clipped to its parent (and each top-level
// span to the trace), so a span recorded with an earlier start than its
// parent, as a retroactive queue wait can be, adds time to neither.
// Concurrent children each keep their full self time, so the self times of
// a parallel batch sum to more than its wall time. A span still in progress
// when the trace was snapshotted counts up to the snapshot, as the daemon
// reports it. A trace that dropped spans is rejected: its tree is missing
// children, so its self times would be wrong.
func selfTimes(tr *traceDoc, self map[string]float64) (covered float64, err error) {
	if tr.SpansDropped > 0 {
		return 0, fmt.Errorf("trace %s dropped %d spans", tr.RequestID, tr.SpansDropped)
	}
	var walk func(sp *span, iv interval)
	walk = func(sp *span, iv interval) {
		var kids []interval
		for _, c := range adopt(sp.Children) {
			if civ, ok := clip(c, iv.lo, iv.hi); ok {
				kids = append(kids, civ)
				walk(c, civ)
			}
		}
		self[sp.Name] += iv.hi - iv.lo - unionLen(kids)
	}
	var roots []interval
	for _, sp := range adopt(tr.Spans) {
		if iv, ok := clip(sp, 0, tr.DurationMS); ok {
			roots = append(roots, iv)
			walk(sp, iv)
		}
	}
	return unionLen(roots), nil
}

// spanDurations appends the duration of every span named name in tr.
func spanDurations(tr *traceDoc, name string, out []float64) []float64 {
	var walk func(ns []*span)
	walk = func(ns []*span) {
		for _, sp := range ns {
			if sp.Name == name {
				out = append(out, sp.DurationMS)
			}
			walk(sp.Children)
		}
	}
	walk(tr.Spans)
	return out
}

// traceAcc accumulates the traced requests of one run.
type traceAcc struct {
	self         map[string]float64 // stage -> self time (ms)
	unattributed float64            // client latency no span covers (ms)
	clientMS     float64            // summed client latency of accepted traces
	queueWaits   []float64          // pool.queue_wait durations (ms)
	dropped      int
}

// add folds in one request's trace and its client-side latency. Client
// latency that no top-level span covers (HTTP, JSON decode and encode,
// routing) is unattributed. Queue waits are kept for single requests only
// (batch is false): a batch's items queue behind each other by design.
func (a *traceAcc) add(tr *traceDoc, clientMS float64, batch bool) error {
	if a.self == nil {
		a.self = map[string]float64{}
	}
	a.dropped += tr.SpansDropped
	covered, err := selfTimes(tr, a.self)
	if err != nil {
		return err
	}
	a.unattributed += max(clientMS-covered, 0)
	a.clientMS += clientMS
	if !batch {
		a.queueWaits = spanDurations(tr, "pool.queue_wait", a.queueWaits)
	}
	return nil
}

// shares returns each stage's share of total self time, where total self
// time includes the unattributed remainder, and the concurrency: total self
// time over client latency (1 when every request ran its spans serially).
// Spans not named in stages are reported as "other".
func (a *traceAcc) shares(stages []string) (share map[string]float64, concurrency float64) {
	share = make(map[string]float64, len(stages)+2)
	total := a.unattributed
	for _, ms := range a.self {
		total += ms
	}
	if total == 0 {
		return share, 0
	}
	known := map[string]bool{}
	for _, st := range stages {
		known[st] = true
		share[st] = a.self[st] / total
	}
	other := 0.0
	for name, ms := range a.self {
		if !known[name] {
			other += ms
		}
	}
	share["other"] = other / total
	share["unattributed"] = a.unattributed / total
	return share, total / a.clientMS
}
