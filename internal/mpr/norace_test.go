//go:build !race

package mpr

const raceEnabled = false
