//go:build !race

// Package testenv holds what tests in several packages share: whether
// the build runs under the race detector (allocation guards,
// testing.AllocsPerRun, skip there, since its instrumentation allocates
// on its own), golden-file comparison and a field-by-field comparison
// that holds floats to their bits.
package testenv

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = false
