//go:build !race

package auditor

const raceEnabled = false
