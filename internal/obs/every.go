package obs

import "time"

// Every calls pass once at once, then once every interval until stop is
// closed. It is the daemon's one sampling loop (DESIGN.md §13): the
// runtime collector, the SLO engine and the history store own no
// ticker of their own, and are sampled by the pass this loop drives.
func Every(stop <-chan struct{}, interval time.Duration, pass func()) {
	pass()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			pass()
		}
	}
}
