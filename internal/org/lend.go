package org

import (
	"context"
	"sync"
	"sync/atomic"
)

// Lender lends idle CPU slots to a search's independent work — greedy
// restarts, exhaustive-scan points and spatial-calibration simulations —
// one task at a time. chipletd's worker pool is one: it lends a slot only
// while a worker is idle and no request waits for admission, so a loaded
// daemon lends nothing and its searches run serially.
type Lender interface {
	// TryLend borrows one slot without blocking. The borrower runs one
	// task and then calls release, which is safe to call more than once.
	TryLend() (release func(), ok bool)
}

type lenderKey struct{}

// WithLender returns a context whose searches and calibrations borrow
// their helper slots from l. Answers never depend on the lender: it only
// decides how many goroutines share the work.
func WithLender(ctx context.Context, l Lender) context.Context {
	return context.WithValue(ctx, lenderKey{}, l)
}

func lenderFrom(ctx context.Context) Lender {
	l, _ := ctx.Value(lenderKey{}).(Lender)
	return l
}

// helperCap caps the helper goroutines one search runs beside its caller
// at Config.SearchWorkers−1, and borrows each slot from the lender the
// search's context carried (without one, every borrow within the cap
// succeeds, which is the CLI and library behaviour). Restarts and the
// calibration simulations nested inside them share the one cap.
type helperCap struct {
	parent     Lender // nil: no outer lender
	max        int32
	held, peak atomic.Int32
}

func withHelperCap(ctx context.Context, searchWorkers int) (context.Context, *helperCap) {
	h := &helperCap{parent: lenderFrom(ctx), max: int32(max(searchWorkers-1, 0))}
	return WithLender(ctx, h), h
}

func (h *helperCap) TryLend() (func(), bool) {
	n := h.held.Add(1)
	if n > h.max {
		h.held.Add(-1)
		return nil, false
	}
	release := func() {}
	if h.parent != nil {
		r, ok := h.parent.TryLend()
		if !ok {
			h.held.Add(-1)
			return nil, false
		}
		release = r
	}
	casMax(&h.peak, n)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			release()
			h.held.Add(-1)
		}
	}, true
}

// Peak returns the most helper slots held at once so far.
func (h *helperCap) Peak() int { return int(h.peak.Load()) }

func casMax(a *atomic.Int32, v int32) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stopIndex is the lowest index at which a fanOut's serial loop would have
// stopped (a terminal restart, a failed simulation). Indices above it can
// no longer change the outcome and may be skipped; every index below the
// final value runs to completion, so an ascending scan of the outputs
// meets exactly the result the serial loop would have returned, and the
// same error when one failed.
type stopIndex struct{ v atomic.Int64 }

func newStopIndex(n int) *stopIndex {
	s := &stopIndex{}
	s.v.Store(int64(n))
	return s
}

// past reports whether index i lies above the current stop index.
func (s *stopIndex) past(i int) bool { return int64(i) > s.v.Load() }

// stop lowers the stop index to i.
func (s *stopIndex) stop(i int) {
	for {
		cur := s.v.Load()
		if int64(i) >= cur || s.v.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// fanOut runs fn(i) for every i in [0, n), handing the indices out in
// ascending order. The caller's goroutine always works. Before each of its
// own tasks it recruits helper goroutines for the remaining work, one per
// slot the Lender in ctx grants; a helper borrows a slot before each task,
// returns it after, and exits when a borrow fails. With no lender in ctx
// it is a plain loop on the caller. It returns the most helpers that ran
// at once.
func fanOut(ctx context.Context, n int, fn func(i int)) int {
	l := lenderFrom(ctx)
	var next atomic.Int64
	var running, peak atomic.Int32
	var wg sync.WaitGroup
	borrow := func() (func(), bool) {
		release, ok := l.TryLend()
		if ok {
			casMax(&peak, running.Add(1))
		}
		return release, ok
	}
	helper := func(release func()) {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i < n {
				fn(i)
			}
			running.Add(-1)
			release()
			if i >= n {
				return
			}
			var ok bool
			if release, ok = borrow(); !ok {
				return
			}
		}
	}
	for {
		// Keep at least one remaining index per helper plus one for the
		// caller; a slot freed mid-run is picked up here at the caller's
		// next task boundary.
		for l != nil && int(next.Load())+int(running.Load())+1 < n {
			release, ok := borrow()
			if !ok {
				break
			}
			wg.Add(1)
			go helper(release)
		}
		i := int(next.Add(1) - 1)
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
	return int(peak.Load())
}
