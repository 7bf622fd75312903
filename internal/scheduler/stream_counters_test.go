package scheduler

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"lpvs/internal/edge"
)

// streamCountersGolden holds what one scheduling stream reported, tick
// by tick, at commit 62a2d8f, when a pool still kept a cross-slot plan
// cache and Phase-1 memo per stream. Each line is one tick of
// streamTicks: its plan-cache hits, misses and evictions, whether the
// whole decision was replayed, whether Phase-1 was served from the memo
// (phase1_cached) or seeded (phase1_warm), the Phase-1 node count, and
// the SHA-256 of the decision's canonical bytes (or the error a failing
// tick returned). Every slot is now solved cold, so only the node count
// and the canonical hash are compared; the cache columns are dropped.
// A phase1_cached row recorded 0 nodes because nothing was searched; it
// must now read the cold search's count, which the test takes from
// DecideSerial. RECORD_PARENT_GOLDEN=1 rewrites the file from the build
// under test — only meaningful from a checkout of the commit being
// pinned, with this file copied in.
const streamCountersGolden = "stream_counters_parent.golden"

// oneSearchRows are the ticks whose Phase-1 solve the recorded build
// ran twice: a search seeded with the previous slot's picks that did
// not improve on its seed, then the cold search (268 nodes in all).
// Phase-1 is now that cold search alone, so these rows must read its
// 155 nodes, and nothing else about them may move.
var oneSearchRows = map[string]bool{
	"02-churn-5pct": true, "11-invalid-fixed": true, "13-reordered": true, "14-order-restored": true,
}

// streamTick is one step of the pinned sequence.
type streamTick struct {
	name    string
	reqs    []Request
	cfg     *Config // decided by a scheduler with this config, in a scratch from the pool's free list
	expired bool    // decided under an already expired deadline
}

// streamTicks is the pinned sequence: a cold slot, 5% churn, an
// unchanged slot twice, a device named twice (twice), the duplicate
// resolved, a device named twice with the changed copy first and then
// that copy alone, a batch failing mid-way and then its fix, the same
// set reordered and restored, an expired deadline and then a revert,
// and a config change there and back.
func streamTicks(t *testing.T, cfg Config) []streamTick {
	base := makeVCSet(t, 1, 40, 2606)[0].Requests
	SortRequests(base)
	with := func(reqs []Request, edit func([]Request)) []Request {
		out := append([]Request(nil), reqs...)
		edit(out)
		return out
	}
	churned := with(base, func(r []Request) {
		r[5].Gamma = 0.65 - r[5].Gamma
		r[23].EnergyFrac = 1 - 0.9*r[23].EnergyFrac
	})
	// Device 11 twice: the first copy as the last slot sent it, the second changed.
	dup := churned[11]
	dup.EnergyFrac = 0.02
	twice := append(append(append([]Request(nil), churned[:12]...), dup), churned[12:]...)
	resolved := with(churned, func(r []Request) { r[11].EnergyFrac *= 0.8 })
	// Device 11 twice again, the changed copy first; then that copy alone.
	first := resolved[11]
	first.EnergyFrac = 0.03
	firstTwice := append(append(append([]Request(nil), resolved[:11]...), first), resolved[11:]...)
	settled := with(resolved, func(r []Request) { r[11] = first })
	fixed := with(resolved, func(r []Request) { r[30].Gamma = 0.6 - r[30].Gamma })
	reversed := with(fixed, func(r []Request) { slices.Reverse(r) })
	invalid := with(fixed, func(r []Request) { r[20].Gamma = 0 })
	pressured := with(fixed, func(r []Request) {
		r[2].Gamma = 0.65 - r[2].Gamma
		r[3].Gamma = 0.65 - r[3].Gamma
	})
	other := cfg
	other.Lambda *= 2
	return []streamTick{
		{name: "01-all-miss", reqs: base},
		{name: "02-churn-5pct", reqs: churned},
		{name: "03-unchanged", reqs: churned},
		{name: "04-unchanged-again", reqs: churned},
		{name: "05-duplicate", reqs: twice},
		{name: "06-duplicate-again", reqs: twice},
		{name: "07-duplicate-resolved", reqs: resolved},
		{name: "08-duplicate-changed-first", reqs: firstTwice},
		{name: "09-duplicate-settled", reqs: settled},
		{name: "10-invalid-mid-batch", reqs: invalid},
		{name: "11-invalid-fixed", reqs: fixed},
		{name: "12-fixed-unchanged", reqs: fixed},
		{name: "13-reordered", reqs: reversed},
		{name: "14-order-restored", reqs: fixed},
		{name: "15-deadline-expired", reqs: pressured, expired: true},
		{name: "16-reverted", reqs: fixed},
		{name: "17-config-change", reqs: fixed, cfg: &other},
		{name: "18-config-back", reqs: fixed},
	}
}

// streamRows decides ticks on one VC of pool and renders a row per
// tick: its Phase-1 node count and canonical hash. serialNodes maps
// each tick decided without a deadline to the node count DecideSerial
// searches on it.
func streamRows(t *testing.T, pool *Pool, ticks []streamTick, cfg Config) (rows []string, serialNodes map[string]int) {
	serialNodes = make(map[string]int, len(ticks))
	for _, tk := range ticks {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if tk.expired {
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
		}
		tickCfg := cfg
		if tk.cfg != nil {
			tickCfg = *tk.cfg
		}
		vcs := []VC{{ID: "vc", Requests: tk.reqs}}
		var dec Decision
		var err error
		if tk.cfg != nil {
			sc := pool.free.Get()
			if sc == nil {
				t.Fatalf("%s: the pool's free list kept no scratch from the ticks before", tk.name)
			}
			err = mustScheduler(t, tickCfg).scheduleWith(ctx, tk.reqs, sc, pool.workers, nil, &dec)
			pool.free.Put(sc)
		} else {
			var res *PoolResult
			if res, err = pool.DecideCtx(ctx, vcs); err == nil {
				dec = res.Decision()
			}
		}
		cancel()
		if err != nil {
			rows = append(rows, fmt.Sprintf("%s error=%q", tk.name, err.Error()))
			continue
		}
		if tk.expired && !dec.Degraded.Any() {
			t.Fatalf("%s: an expired deadline left the decision undegraded", tk.name)
		}
		if !tk.expired {
			ref, err := DecideSerial(mustScheduler(t, tickCfg), vcs)
			if err != nil {
				t.Fatal(err)
			}
			serialNodes[tk.name] = ref.Decision().Phase1Nodes
		}
		rows = append(rows, fmt.Sprintf("%s phase1_nodes=%d canonical=%s",
			tk.name, dec.Phase1Nodes, canonicalSum(dec.Canonical())))
	}
	return rows, serialNodes
}

// goldenRow reads one golden row back in the form streamRows renders:
// error rows as they are, decided rows as their name, node count and
// canonical hash — the count DecideSerial searches when the recorded
// build served Phase-1 from its memo, the cold search's 155 on the
// oneSearchRows.
func goldenRow(t *testing.T, row string, serialNodes map[string]int) string {
	if !strings.Contains(row, " canonical=") {
		return row
	}
	fields := strings.Fields(row)
	name := fields[0]
	var nodes, canonical string
	cached := false
	for _, f := range fields[1:] {
		key, val, _ := strings.Cut(f, "=")
		switch key {
		case "phase1_nodes":
			nodes = val
		case "canonical":
			canonical = val
		case "phase1_cached":
			cached = val == "true"
		}
	}
	switch {
	case cached:
		if nodes != "0" {
			t.Fatalf("%s: a phase1_cached golden row reads %s nodes", name, nodes)
		}
		n, ok := serialNodes[name]
		if !ok {
			t.Fatalf("%s: no serial decision to take the node count from", name)
		}
		nodes = fmt.Sprint(n)
	case oneSearchRows[name]:
		if nodes != "268" {
			t.Fatalf("%s: golden row does not read 268 nodes: %s", name, row)
		}
		nodes = "155"
	}
	return fmt.Sprintf("%s phase1_nodes=%s canonical=%s", name, nodes, canonical)
}

// TestStreamCountersParentPinned holds a pool's decisions, tick by
// tick, to the recorded parent through every corner a reused scratch
// meets — a batch that grows, shrinks, names a device twice, fails
// half-way, is reordered, degrades, or is decided under another
// configuration — on a one-worker pool and on a three-worker one. The
// 40-device VC is one compaction chunk, compacted serially by both;
// TestParallelCompactingMatchesSerial covers a VC compacted in
// parallel.
func TestStreamCountersParentPinned(t *testing.T) {
	server, err := edge.NewServer(12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	got, serialNodes := streamRows(t, mustSlotStream(t, cfg).pool, streamTicks(t, cfg), cfg)

	wide, err := NewPool(cfg, PoolConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	wideRows, _ := streamRows(t, wide, streamTicks(t, cfg), cfg)
	for i, row := range wideRows {
		if row != got[i] {
			t.Errorf("a three-worker pool changed a tick:\n one worker    %s\n three workers %s", got[i], row)
		}
	}

	path := filepath.Join("testdata", streamCountersGolden)
	if os.Getenv("RECORD_PARENT_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, goldenRow(t, sc.Text(), serialNodes))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d ticks, the sequence %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tick diverged from the parent:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
