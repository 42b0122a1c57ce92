//go:build !race

package power

const raceEnabled = false
