//go:build race

package devsim

// raceEnabled reports that the race detector is compiled in; it charges
// every Access microseconds of its own.
const raceEnabled = true
