package qoe

import (
	"testing"

	"lpvs/internal/stats"
)

// BenchmarkSimulate measures the playout-buffer walk over a 2-hour
// session.
func BenchmarkSimulate(b *testing.B) {
	cs := chunks(b, 720, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(stats.NewRNG(int64(i)), OneSlotAhead, 0, cs); err != nil {
			b.Fatal(err)
		}
	}
}
