package bufpool

import "sync"

// FreeList is a bounded LIFO of reusable workspaces: a scheduler pool's
// plan scratch (one per worker), the daemon's report-decode scratch and
// the router's forward and tick workspaces (a handful each). A plain
// bounded list rather than a sync.Pool: a workspace survives garbage
// collections, so its slices and tables are grown once, and a Put is
// always met by the next Get — a sync.Pool may drop either, which made
// the daemon's hit-rate telemetry unpinnable under the race detector.
// It is safe for concurrent use; a workspace is held by one Get's
// caller until it is Put back.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
	max  int
}

// RequestWorkspaces bounds the free list of every per-request
// workspace — the daemon's report-decode scratch and the router's
// forward and tick workspaces: enough for the handful of requests a
// process serves at once. A burst beyond it builds fresh workspaces and
// leaves them to the collector on Put.
const RequestWorkspaces = 8

// NewFreeList returns an empty list that keeps at most max workspaces;
// its owner sizes max to how many it holds at once.
func NewFreeList[T any](max int) *FreeList[T] { return &FreeList[T]{max: max} }

// Get checks out the workspace put back last — the warmest — or
// returns nil when the list is empty and the caller must build one.
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.free)
	if n == 0 {
		return nil
	}
	v := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return v
}

// Put returns a workspace; one beyond the bound is left to the
// collector.
func (f *FreeList[T]) Put(v *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) < f.max {
		f.free = append(f.free, v)
	}
}
