package bufpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lpvs/internal/testenv"
)

type workspace struct {
	id   int
	held atomic.Bool
}

// TestFreeListLIFO: Get hands out the workspace put back last, so the
// warmest one is reused first, and nil once the list is empty.
func TestFreeListLIFO(t *testing.T) {
	f := NewFreeList[workspace](4)
	if got := f.Get(); got != nil {
		t.Fatalf("an empty list handed out workspace %d", got.id)
	}
	ws := []*workspace{{id: 0}, {id: 1}, {id: 2}}
	for _, w := range ws {
		f.Put(w)
	}
	for want := len(ws) - 1; want >= 0; want-- {
		if got := f.Get(); got != ws[want] {
			t.Fatalf("Get returned %v, want workspace %d", got, want)
		}
	}
	if got := f.Get(); got != nil {
		t.Fatalf("a drained list handed out workspace %d", got.id)
	}
	f.Put(ws[1])
	if got := f.Get(); got != ws[1] {
		t.Fatalf("Get after one Put returned %v, want workspace 1", got)
	}
}

// TestFreeListBound: the list keeps at most the bound its owner set and
// leaves every workspace beyond it to the collector; a bound of zero
// keeps nothing.
func TestFreeListBound(t *testing.T) {
	for _, bound := range []int{0, 1, 3} {
		f := NewFreeList[workspace](bound)
		for i := 0; i < bound+2; i++ {
			f.Put(&workspace{id: i})
		}
		kept := 0
		for w := f.Get(); w != nil; w = f.Get() {
			if w.id >= bound {
				t.Fatalf("bound %d: kept workspace %d, put back past the bound", bound, w.id)
			}
			kept++
		}
		if kept != bound {
			t.Fatalf("bound %d: kept %d workspaces", bound, kept)
		}
	}
}

// TestFreeListConcurrentHolders has goroutines take, hold and return
// workspaces at once, more of them than the list keeps: no workspace is
// ever handed to two holders (each marks the one it holds, and the
// race run watches the list's own bookkeeping), and the list never
// keeps more than its bound.
func TestFreeListConcurrentHolders(t *testing.T) {
	const goroutines, rounds, bound = 8, 500, 3
	f := NewFreeList[workspace](bound)
	var built atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				w := f.Get()
				if w == nil {
					w = &workspace{id: int(built.Add(1))}
				}
				if !w.held.CompareAndSwap(false, true) {
					t.Errorf("workspace %d handed to a second holder", w.id)
					return
				}
				w.id++ // a write the race run sees if two goroutines hold w
				runtime.Gosched()
				w.id--
				w.held.Store(false)
				f.Put(w)
			}
		}()
	}
	close(start)
	wg.Wait()
	kept := 0
	for f.Get() != nil {
		kept++
	}
	if kept > bound {
		t.Fatalf("the list kept %d workspaces, bound %d", kept, bound)
	}
	t.Logf("%d workspaces built for %d holders; %d kept", built.Load(), goroutines, kept)
}

// TestFreeListAllocs: a warm Get and Put allocate nothing, and neither
// does a Put the bound turns away.
func TestFreeListAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := NewFreeList[workspace](1)
	w, extra := new(workspace), new(workspace)
	f.Put(w)
	if n := testing.AllocsPerRun(100, func() {
		got := f.Get()
		f.Put(got)
		f.Put(extra)
	}); n != 0 {
		t.Fatalf("a warm Get and Put allocate %.1f objects", n)
	}
}
