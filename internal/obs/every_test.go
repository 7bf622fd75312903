package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEvery: the loop makes one pass at start, one per interval after
// that, and returns once stopped.
func TestEvery(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		passes   int64 // at least; exactly when the interval never elapses
	}{
		{time.Hour, 1},
		{time.Millisecond, 3},
	} {
		var n atomic.Int64
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			Every(stop, tc.interval, func() { n.Add(1) })
		}()
		deadline := time.Now().Add(5 * time.Second)
		for n.Load() < tc.passes && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		close(stop)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("interval %v: Every did not return once stopped", tc.interval)
		}
		got := n.Load()
		if got < tc.passes || (tc.interval == time.Hour && got != 1) {
			t.Fatalf("interval %v: %d passes, want %d", tc.interval, got, tc.passes)
		}
	}
}
