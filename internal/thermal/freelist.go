package thermal

import (
	"runtime"
	"sync"
)

// freeList recycles per-solve buffers like a sync.Pool without its per-P
// private slots. A sync.Pool Get cannot see an item another P holds in
// its private slot, so a goroutine that moved between Ps since its last
// Put can miss with the item idle and allocate a fresh one. A freeList
// get finds every idle item, whichever goroutine returned it, so a loop
// that returns what it takes allocates nothing once warm. Idle items go
// with the garbage collector as they do from a sync.Pool: every
// collection ages the lists (see armScratchAging), and an item idle
// through two collections is dropped.
type freeList[T any] struct {
	mu  sync.Mutex
	cur []T // returned since the last collection
	old []T // idle through one collection
}

// get takes an idle item, most recently returned first.
func (f *freeList[T]) get() (T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := pop(&f.cur); ok {
		return v, true
	}
	return pop(&f.old)
}

// pop removes and returns the last item of *l.
func pop[T any](l *[]T) (T, bool) {
	var zero T
	n := len(*l)
	if n == 0 {
		return zero, false
	}
	v := (*l)[n-1]
	(*l)[n-1] = zero
	*l = (*l)[:n-1]
	return v, true
}

// put returns an item for a later get.
func (f *freeList[T]) put(v T) {
	f.mu.Lock()
	f.cur = append(f.cur, v)
	f.mu.Unlock()
}

// age drops the items idle since the collection before last and marks the
// rest idle through one.
func (f *freeList[T]) age() {
	f.mu.Lock()
	clear(f.old)
	f.old, f.cur = f.cur, f.old[:0]
	f.mu.Unlock()
}

// gcTick is a sentinel whose finalizer runs once per garbage collection;
// its pointer field keeps it out of the tiny allocator, whose shared
// blocks would delay the finalizer.
type gcTick struct{ _ *int }

func init() { armScratchAging() }

// armScratchAging ages every shape's scratch lists after the next
// collection and re-arms itself.
func armScratchAging() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		scratchByShape.Range(func(_, s any) bool {
			s.(*scratch).age()
			return true
		})
		armScratchAging()
	})
}
