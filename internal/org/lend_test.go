package org

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// flakyLender grants a borrow only while fewer than max slots are held,
// and then only on a coin flip, so helpers start, stop and restart at
// arbitrary task boundaries.
type flakyLender struct {
	max        int32
	held, peak atomic.Int32
	mu         sync.Mutex
	rng        *rand.Rand
}

func (f *flakyLender) TryLend() (func(), bool) {
	f.mu.Lock()
	grant := f.rng.Intn(2) == 0
	f.mu.Unlock()
	if !grant {
		return nil, false
	}
	n := f.held.Add(1)
	if n > f.max {
		f.held.Add(-1)
		return nil, false
	}
	casMax(&f.peak, n)
	var once sync.Once
	return func() { once.Do(func() { f.held.Add(-1) }) }, true
}

// fanOut must run every index exactly once whatever the lender grants,
// never hold more slots than granted, and return every slot.
func TestFanOutRunsEachIndexOnce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		l := &flakyLender{max: 3, rng: rand.New(rand.NewSource(seed))}
		n := int(seed)*7 + 1
		counts := make([]atomic.Int32, n)
		helpers := fanOut(WithLender(context.Background(), l), n, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("seed %d: index %d ran %d times", seed, i, c)
			}
		}
		if l.held.Load() != 0 {
			t.Fatalf("seed %d: %d slots never released", seed, l.held.Load())
		}
		if int32(helpers) > l.peak.Load() {
			t.Fatalf("seed %d: fanOut reports %d helpers, lender granted at most %d at once", seed, helpers, l.peak.Load())
		}
	}
	// Without a lender the caller runs everything in order.
	var order []int
	if h := fanOut(context.Background(), 5, func(i int) { order = append(order, i) }); h != 0 {
		t.Fatalf("fanOut without a lender ran %d helpers", h)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fanOut order %v", order)
		}
	}
}

// The Searcher's cap allows SearchWorkers−1 helpers at once and borrows
// each from the outer lender; a refused outer borrow frees the cap slot.
func TestHelperCap(t *testing.T) {
	outer := newGrantLender(1)
	_, h := withHelperCap(WithLender(context.Background(), outer), 3)
	r1, ok := h.TryLend()
	if !ok {
		t.Fatal("first borrow refused")
	}
	if _, ok := h.TryLend(); ok {
		t.Fatal("borrow granted after the outer lender ran out")
	}
	_, free := withHelperCap(context.Background(), 3)
	a, ok1 := free.TryLend()
	b, ok2 := free.TryLend()
	if _, ok3 := free.TryLend(); !ok1 || !ok2 || ok3 {
		t.Fatalf("cap of 2 helpers granted %v %v %v", ok1, ok2, ok3)
	}
	a()
	a() // idempotent
	if _, ok := free.TryLend(); !ok {
		t.Fatal("released slot not returned to the cap")
	}
	b()
	r1()
	if h.Peak() != 1 || free.Peak() != 2 {
		t.Fatalf("peaks = %d, %d, want 1, 2", h.Peak(), free.Peak())
	}
}

// A fanOut that skips indices past the lowest failure must still run every
// index below it, so the ascending scan returns the error the serial loop
// would have, whichever goroutine failed first.
func TestStopIndexKeepsSerialError(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		fails := map[int]bool{rng.Intn(n): true, rng.Intn(n): true}
		spins := make([]int, n)
		for i := range spins {
			spins[i] = rng.Intn(200)
		}
		l := &flakyLender{max: 3, rng: rand.New(rand.NewSource(seed))}
		ran := make([]bool, n)
		failedAt := newStopIndex(n)
		fanOut(WithLender(context.Background(), l), n, func(i int) {
			for k := 0; k < spins[i]; k++ {
				runtime.Gosched()
			}
			if failedAt.past(i) {
				return
			}
			ran[i] = true
			if fails[i] {
				failedAt.stop(i)
			}
		})
		first := n
		for i := range fails {
			first = min(first, i)
		}
		for i := 0; i <= first; i++ {
			if !ran[i] {
				t.Fatalf("seed %d: index %d skipped below the first failure %d", seed, i, first)
			}
		}
	}
}
