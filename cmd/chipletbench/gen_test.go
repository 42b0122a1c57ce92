package main

import "testing"

// TestMixedColdIsInteractive keeps mixed's cold class to its interactive
// solves: the background lane's cold sweeps take several times as long,
// and mixed into one median they would move it with the share of each.
func TestMixedColdIsInteractive(t *testing.T) {
	next := backgroundStream(1, quickSize)
	for i := 0; i < 9; i++ {
		if jb := next(i); jb.class == "cold" {
			t.Errorf("background job %d is in the cold class", i)
		}
	}
	if jb := interactiveStream(1, quickSize)(0); jb.class != "cold" {
		t.Errorf("interactive solve in class %q, want cold", jb.class)
	}
}
