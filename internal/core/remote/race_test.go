//go:build race

package remote

// raceEnabled reports that the race detector is compiled in; it makes
// sync.Pool drop a share of what is put back, so pooled request heads
// are sometimes built anew.
const raceEnabled = true
