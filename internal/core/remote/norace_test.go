//go:build !race

package remote

const raceEnabled = false
