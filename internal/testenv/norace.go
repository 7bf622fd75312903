//go:build !race

// Package testenv tells tests about the build they run in. Allocation
// guards (testing.AllocsPerRun) skip under the race detector, whose
// instrumentation allocates on its own.
package testenv

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = false
