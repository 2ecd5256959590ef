//go:build !race

package devsim

const raceEnabled = false
