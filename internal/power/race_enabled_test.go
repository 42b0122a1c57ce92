//go:build race

package power

// raceEnabled reports whether the race detector is instrumenting this test
// binary; its tracking allocates, so allocation-budget tests skip.
const raceEnabled = true
