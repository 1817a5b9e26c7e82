//go:build race

package mpr

// raceEnabled is set under the race detector, which makes sync.Pool drop
// items at random: a pooled working set is then sometimes rebuilt.
const raceEnabled = true
