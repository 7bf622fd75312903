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

// streamCountersGolden holds what one incremental stream reported, tick
// by tick, at commit 62a2d8f — the last build whose stream kept every
// request's fingerprint twice (a per-call arena and a replay key) and
// built every miss into a per-call slab. Each line is one tick of
// streamTicks: its plan-cache hits, misses and evictions, the replay
// and Phase-1 shortcuts taken, and the SHA-256 of the decision's
// canonical bytes (or the error a failing tick returned). The recorded
// build also wrote a phase1_warm column, false on every row; it is
// dropped before comparing.
// RECORD_PARENT_GOLDEN=1 rewrites it from the build under test — only
// meaningful from a checkout of the commit being pinned, with this file
// copied in.
const streamCountersGolden = "stream_counters_parent.golden"

// dupReplayRows are the only ticks allowed to differ from the golden,
// and only in their counters: a batch naming a device twice, sent again
// unchanged. The recorded build replayed it whole; a stream now never
// replays such a batch and solves it from its plan cache instead. The
// decision bytes must still match.
var dupReplayRows = map[string]bool{"06-duplicate-again": true}

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
	cfg     *Config // decided by a scheduler with this config on the stream's state
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
	// Device 11 twice: the first copy as cached, the second changed.
	dup := churned[11]
	dup.EnergyFrac = 0.02
	twice := append(append(append([]Request(nil), churned[:12]...), dup), churned[12:]...)
	resolved := with(churned, func(r []Request) { r[11].EnergyFrac *= 0.8 })
	// Device 11 twice again, the changed copy first; then that copy alone,
	// which hits only if the stream kept the last copy it missed.
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

// streamRows decides ticks on one stream of pool and renders a row per
// tick.
func streamRows(t *testing.T, pool *Pool, ticks []streamTick) []string {
	rows := make([]string, 0, len(ticks))
	for _, tk := range ticks {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if tk.expired {
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
		}
		var dec Decision
		var err error
		if tk.cfg != nil {
			st := pool.stateFor(warmStreamKey)
			err = mustScheduler(t, *tk.cfg).scheduleWith(ctx, tk.reqs, st, nil, &dec)
		} else {
			var res *PoolResult
			if res, err = pool.DecideCtx(ctx, []VC{{ID: "vc", StateKey: warmStreamKey, Requests: tk.reqs}}); err == nil {
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
		rows = append(rows, fmt.Sprintf("%s hits=%d misses=%d evictions=%d replayed=%t phase1_cached=%t phase1_nodes=%d canonical=%s",
			tk.name, dec.PlanCacheHits, dec.PlanCacheMisses, dec.PlanCacheEvictions, dec.Replayed,
			dec.Phase1Cached, dec.Phase1Nodes, canonicalSum(dec.Canonical())))
	}
	return rows
}

// TestStreamCountersParentPinned holds a stream's per-tick cache
// counters and decisions to the recorded parent through every corner
// the stream's memory layout touches, on a one-worker stream and on a
// three-worker one whose misses are compacted in parallel.
func TestStreamCountersParentPinned(t *testing.T) {
	server, err := edge.NewServer(12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: server, Lambda: 1.5}
	got := streamRows(t, mustWarmStream(t, cfg).pool, streamTicks(t, cfg))

	wideCfg := cfg
	wideCfg.CompactChunk = 4
	wide, err := NewPool(wideCfg, PoolConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range streamRows(t, wide, streamTicks(t, wideCfg)) {
		if row != got[i] {
			t.Errorf("parallel compaction changed a tick:\n one worker    %s\n three workers %s", got[i], row)
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
		row := sc.Text()
		if strings.Contains(row, " canonical=") {
			if !strings.Contains(row, " phase1_warm=false ") {
				t.Fatalf("golden row without phase1_warm=false: %s", row)
			}
			row = strings.Replace(row, " phase1_warm=false", "", 1)
			if name, _, _ := strings.Cut(row, " "); oneSearchRows[name] {
				if !strings.Contains(row, " phase1_nodes=268 ") {
					t.Fatalf("%s: golden row does not read 268 nodes: %s", name, row)
				}
				row = strings.Replace(row, " phase1_nodes=268 ", " phase1_nodes=155 ", 1)
			}
		}
		want = append(want, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d ticks, the sequence %d", len(want), len(got))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		name, _, _ := strings.Cut(want[i], " ")
		_, wantSum, _ := strings.Cut(want[i], " canonical=")
		_, gotSum, _ := strings.Cut(got[i], " canonical=")
		if dupReplayRows[name] && wantSum != "" && gotSum == wantSum {
			t.Logf("%s: listed difference, decision unchanged:\n got  %s\n want %s", name, got[i], want[i])
			continue
		}
		t.Errorf("tick diverged from the parent:\n got  %s\n want %s", got[i], want[i])
	}
}
