//go:build race

package auditor

// raceEnabled reports that the race detector is compiled in; it makes
// sync.Pool drop a share of what is put back, so a drain cycle's scratch
// is sometimes built anew.
const raceEnabled = true
