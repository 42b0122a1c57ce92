package thermal

import "testing"

// TestFreeListFindsEveryIdleItem pins what the scratch lists add over a
// sync.Pool: an item returned on any goroutine is found by the next get
// on any other, and idle items go only after two collections.
func TestFreeListFindsEveryIdleItem(t *testing.T) {
	var f freeList[int]
	done := make(chan struct{})
	go func() {
		f.put(1)
		f.put(2)
		close(done)
	}()
	<-done
	for _, want := range []int{2, 1} {
		if v, ok := f.get(); !ok || v != want {
			t.Fatalf("get = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if v, ok := f.get(); ok {
		t.Fatalf("get on an empty list = %d, want a miss", v)
	}

	f.put(3)
	f.age()
	f.put(4)
	for _, want := range []int{4, 3} {
		if v, ok := f.get(); !ok || v != want {
			t.Fatalf("after one collection: get = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	f.put(5)
	f.age()
	f.age()
	if v, ok := f.get(); ok {
		t.Fatalf("an item idle through two collections was kept: %d", v)
	}
}
