//go:build race

package testenv

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = true
