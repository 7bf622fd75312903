package scheduler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lpvs/internal/edge"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// canonicalFromMaps is Decision.Canonical as it was while the decision
// was keyed by device ID — the function verbatim, reading the Transform
// map — kept as the reference the positional encoding must reproduce
// byte for byte on every batch of distinct IDs.
func canonicalFromMaps(d Decision) []byte {
	ids := make([]string, 0, len(d.Transform))
	for id := range d.Transform {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b bytes.Buffer
	fmt.Fprintf(&b, "selected=%d eligible=%d swaps=%d optimal=%t phase1=%.17g objective=%.17g\n",
		d.Selected, d.Eligible, d.Swaps, d.OptimalPhase1, d.Phase1Value, d.Objective)
	// Appended only for degraded decisions so the historical encoding —
	// and every audit record written before anytime mode existed — is
	// byte-preserved.
	if d.Degraded.Any() {
		fmt.Fprintf(&b, "degraded=phase1:%t phase2:%t\n", d.Degraded.Phase1Greedy, d.Degraded.Phase2Skipped)
	}
	// Written piecewise: a Fprintf("%s=%t") here boxes one string per
	// device, which the audit path pays on every tick.
	for _, id := range ids {
		b.WriteString(id)
		if d.Transform[id] {
			b.WriteString("=true\n")
		} else {
			b.WriteString("=false\n")
		}
	}
	return b.Bytes()
}

// viewsAgree checks a boundary decision's two views against each other:
// both cover the batch, every position says what the map says for its
// device (a device the batch names twice is held to its last position),
// and the counters match the vector.
func viewsAgree(t *testing.T, name string, reqs []Request, d Decision) {
	t.Helper()
	if len(d.X) != len(reqs) || len(d.PerDevice) != len(reqs) {
		t.Fatalf("%s: positional view covers %d/%d of %d requests", name, len(d.X), len(d.PerDevice), len(reqs))
	}
	last := map[string]int{}
	for i := range reqs {
		last[reqs[i].DeviceID] = i
	}
	if len(d.Transform) != len(last) {
		t.Fatalf("%s: map holds %d devices, batch names %d", name, len(d.Transform), len(last))
	}
	selected, eligible := 0, 0
	for i := range reqs {
		if d.PerDevice[i].Selected != d.X[i] {
			t.Fatalf("%s: position %d: verdict says selected=%v, X says %v", name, i, d.PerDevice[i].Selected, d.X[i])
		}
		if d.X[i] {
			selected++
		}
		if d.PerDevice[i].Eligible {
			eligible++
		}
		id := reqs[i].DeviceID
		if last[id] != i {
			continue
		}
		if on, ok := d.Transform[id]; !ok || on != d.X[i] {
			t.Fatalf("%s: %s: Transform says %v (present %v), position %d says %v", name, id, on, ok, i, d.X[i])
		}
	}
	if selected != d.Selected || eligible != d.Eligible {
		t.Fatalf("%s: vector holds %d selected / %d eligible, counters say %d / %d",
			name, selected, eligible, d.Selected, d.Eligible)
	}
}

// TestDecisionViewsAgree: at the library boundary a decision carries
// both views, and they agree device by device — on the ID-sorted batch
// the daemon schedules and on a shuffled one (where Canonical has to
// sort positions); TestDuplicateDeviceBatchPrintsEveryPosition covers a
// batch naming one device twice. On distinct IDs Canonical is byte for
// byte what the map-keyed encoding printed.
func TestDecisionViewsAgree(t *testing.T) {
	server, err := edge.NewServer(4)
	if err != nil {
		t.Fatal(err)
	}
	sorted := makeCluster(t, 40, 2024)
	SortRequests(sorted)
	shuffled := append([]Request(nil), sorted...)
	rng := stats.NewRNG(5)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for _, cfg := range []Config{
		{Server: server, Lambda: 1.5},
		{Lambda: 0},
	} {
		s := mustScheduler(t, cfg)
		for _, batch := range []struct {
			name      string
			reqs      []Request
			wantOrder bool
		}{
			{"sorted", sorted, false},
			{"shuffled", shuffled, true},
			{"sorted again", sorted, false},
		} {
			d, err := s.Schedule(batch.reqs)
			if err != nil {
				t.Fatal(err)
			}
			viewsAgree(t, batch.name, batch.reqs, d)
			if got := d.IDOrder() != nil; got != batch.wantOrder {
				t.Fatalf("%s: IDOrder returned an order: %v, want %v", batch.name, got, batch.wantOrder)
			}
			if got, want := d.Canonical(), canonicalFromMaps(d); !bytes.Equal(got, want) {
				t.Fatalf("%s: positional Canonical diverged from the map-keyed reference:\ngot:\n%s\nwant:\n%s",
					batch.name, got, want)
			}
		}
		for _, p := range []Policy{NoTransform{}, mustGreedyBattery(t, cfg)} {
			d, err := p.Schedule(shuffled)
			if err != nil {
				t.Fatal(err)
			}
			viewsAgree(t, p.Name(), shuffled, d)
			if got, want := d.Canonical(), canonicalFromMaps(d); !bytes.Equal(got, want) {
				t.Fatalf("%s: positional Canonical diverged from the map-keyed reference", p.Name())
			}
		}
	}
}

func mustGreedyBattery(t *testing.T, cfg Config) Policy {
	t.Helper()
	p, err := NewGreedyBatteryPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDuplicateDeviceBatchPrintsEveryPosition pins what a batch naming
// one device twice produces, which only a library caller can submit
// (the daemon's batch is the values of a map keyed by device ID). The
// decision is positional, so both copies are scheduled, counted and
// printed — Canonical lists them side by side in batch order, where the
// map-keyed encoding printed the ID once — and the ID-keyed map keeps
// the last copy's entry — from the cold path and from a slot stream
// reusing the slab of a slot without the duplicate alike.
func TestDuplicateDeviceBatchPrintsEveryPosition(t *testing.T) {
	base := makeCluster(t, 4, 99)
	SortRequests(base)
	dup := base[1]
	dup.EnergyFrac = 0.001 // too drained to be eligible
	reqs := []Request{base[0], base[1], dup, base[2], base[3]}

	cfg := Config{Lambda: 1.5}
	d, err := mustScheduler(t, cfg).Schedule(reqs)
	if err != nil {
		t.Fatal(err)
	}
	duplicateBatchPinned(t, reqs, dup.DeviceID, d)

	stream := mustSlotStream(t, cfg)
	if _, err := stream.Schedule(base); err != nil { // grows the slab
		t.Fatal(err)
	}
	// A stream's result is positional only; the library boundary's map
	// is built over it the way Schedule builds it.
	d, err = withMaps(stream.Schedule(reqs))
	if err != nil {
		t.Fatal(err)
	}
	duplicateBatchPinned(t, reqs, dup.DeviceID, d)
}

func duplicateBatchPinned(t *testing.T, reqs []Request, dupID string, d Decision) {
	t.Helper()
	viewsAgree(t, "duplicate", reqs, d)
	if d.Selected != 4 || d.Eligible != 4 || len(d.X) != 5 || len(d.Transform) != 4 {
		t.Fatalf("selected=%d eligible=%d over %d positions and %d map entries, want 4/4 over 5 and 4",
			d.Selected, d.Eligible, len(d.X), len(d.Transform))
	}
	if on, ok := d.Transform[dupID]; !ok || on || d.PerDevice[2].Reason != ReasonIneligible {
		t.Fatalf("the map should keep the last copy of %s (position 2, ineligible), has %v; position 2 says %+v",
			dupID, on, d.PerDevice[2])
	}
	if d.IDOrder() != nil {
		t.Fatal("adjacent copies of one ID are in ID order; IDOrder sorted anyway")
	}
	_, vector, _ := strings.Cut(string(d.Canonical()), "\n")
	const want = "dev-aa=true\ndev-ab=true\ndev-ab=false\ndev-ac=true\ndev-ad=true\n"
	if vector != want {
		t.Fatalf("transform vector of a duplicate-ID batch:\ngot:\n%swant:\n%s", vector, want)
	}
}

// TestPoolDecisionOutlivesNextDecide pins the lifetime of a pool
// result. The decision owns its X and PerDevice — the pool's scratch
// is never handed out — so a result is unchanged by
// any number of later Decide calls on the same pool, concurrent ones
// included (run under -race), as long as its batch is left alone, which
// is where Canonical reads device IDs.
func TestPoolDecisionOutlivesNextDecide(t *testing.T) {
	server, err := edge.NewServer(6)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(Config{Server: server, Lambda: 1.5}, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := makeCluster(t, 48, 31)
	SortRequests(first)
	res, err := pool.Decide([]VC{{ID: "vc", Requests: first}})
	if err != nil {
		t.Fatal(err)
	}
	kept := res.VCs[0].Decision
	x := append([]bool(nil), kept.X...)
	per := append([]Verdict(nil), kept.PerDevice...)
	canonical := kept.Canonical()

	// Same pool, later slots: unchanged, churned, and a different
	// population, some of them concurrently.
	churned := append([]Request(nil), first...)
	for i := range churned {
		churned[i].EnergyFrac = 1 - 0.9*churned[i].EnergyFrac
	}
	other := makeCluster(t, 30, 32)
	SortRequests(other)
	var wg sync.WaitGroup
	for _, reqs := range [][]Request{first, churned, other, churned, first} {
		wg.Add(1)
		go func(reqs []Request) {
			defer wg.Done()
			if _, err := pool.Decide([]VC{{ID: "vc", Requests: reqs}}); err != nil {
				t.Error(err)
			}
		}(reqs)
	}
	wg.Wait()

	for i := range x {
		if kept.X[i] != x[i] || kept.PerDevice[i] != per[i] {
			t.Fatalf("position %d of a kept result changed under later Decide calls: %v %+v, was %v %+v",
				i, kept.X[i], kept.PerDevice[i], x[i], per[i])
		}
	}
	if !bytes.Equal(kept.Canonical(), canonical) {
		t.Fatal("a kept result's canonical bytes changed under later Decide calls")
	}
}

// TestDecideIntoReusedResultMatchesFresh is the decide-into
// differential: ONE PoolResult is decided into across the whole
// 210-instance pool-vs-serial corpus — instances of one to four VCs of
// one to twenty devices, so the kept result grows, shrinks and changes
// its VC count from call to call — and per instance through a first
// tick, the same tick again, a cut-down batch degraded by an
// already-expired deadline, the same batch solved in full, and the first
// batch again. After every call it must equal what a twin pool answers
// into a fresh result: canonical bytes, X, PerDevice, the flags and the
// Phase-1 node count, with every length exact — a shorter batch leaves
// no stale tail.
func TestDecideIntoReusedResultMatchesFresh(t *testing.T) {
	base := makeCluster(t, 64, 999)
	rng := stats.NewRNG(20260805) // TestPoolVsSerialDifferential's corpus
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	var kept PoolResult
	degraded := 0
	for inst := 0; inst < 210; inst++ {
		vcs, cfg := randomInstance(rng, base)
		into, err := NewPool(cfg, PoolConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPool(cfg, PoolConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		cut := []VC{vcs[len(vcs)-1]}
		cut[0].Requests = cut[0].Requests[:(len(cut[0].Requests)+1)/2]
		for _, step := range []struct {
			name string
			ctx  context.Context
			vcs  []VC
		}{
			{"first", context.Background(), vcs},
			{"again", context.Background(), vcs},
			{"cut down and degraded", expired, cut},
			{"cut down", context.Background(), cut},
			{"grown back", context.Background(), vcs},
		} {
			if err := into.DecideInto(step.ctx, step.vcs, &kept); err != nil {
				t.Fatalf("instance %d %s: into: %v", inst, step.name, err)
			}
			want, err := fresh.DecideCtx(step.ctx, step.vcs)
			if err != nil {
				t.Fatalf("instance %d %s: fresh: %v", inst, step.name, err)
			}
			if !bytes.Equal(kept.Canonical(), want.Canonical()) {
				t.Fatalf("instance %d %s: reused result diverged from a fresh one:\nreused:\n%s\nfresh:\n%s",
					inst, step.name, kept.Canonical(), want.Canonical())
			}
			if len(kept.VCs) != len(step.vcs) || kept.Workers != want.Workers {
				t.Fatalf("instance %d %s: %d VCs at %d workers, want %d at %d",
					inst, step.name, len(kept.VCs), kept.Workers, len(step.vcs), want.Workers)
			}
			ordered, _ := orderVCs(step.vcs)
			for i := range kept.VCs {
				got, ref := &kept.VCs[i].Decision, &want.VCs[i].Decision
				if kept.VCs[i].VC != ordered[i].ID || len(got.X) != len(ordered[i].Requests) ||
					!slices.Equal(got.X, ref.X) || !slices.Equal(got.PerDevice, ref.PerDevice) {
					t.Fatalf("instance %d %s vc %s: positional view differs from a fresh result's:\n%v %+v\n%v %+v",
						inst, step.name, ordered[i].ID, got.X, got.PerDevice, ref.X, ref.PerDevice)
				}
				if got.Phase1Nodes != ref.Phase1Nodes || got.Degraded != ref.Degraded || got.Transform != nil {
					t.Fatalf("instance %d %s vc %s: nodes=%d degraded=%+v maps=%v, fresh has %d %+v",
						inst, step.name, ordered[i].ID, got.Phase1Nodes, got.Degraded,
						got.Transform != nil, ref.Phase1Nodes, ref.Degraded)
				}
				if got.Degraded.Any() {
					degraded++
				}
			}
		}
	}
	if degraded < 100 {
		t.Fatalf("%d degraded decisions: the corpus was meant to run both paths into the kept result", degraded)
	}
}

// TestPhase2OrderMatchesSliceStable: Phase-2 ranks its two populations
// with slices.SortStableFunc over the scratch-owned slices; the order
// must be exactly what sort.SliceStable produced with the (anxiety,
// DeviceID) less functions, anxiety ties and repeated IDs included.
func TestPhase2OrderMatchesSliceStable(t *testing.T) {
	const n = 10_000
	rng := stats.NewRNG(77)
	reqs := make([]Request, n)
	plans := make([]plan, n)
	set := make([]placed, n)
	for i := range set {
		// 40 anxiety levels and 2,500 IDs: most comparisons tie on
		// anxiety, and each ID is held by about four positions.
		reqs[i].DeviceID = fmt.Sprintf("d%04d", rng.Intn(2500))
		plans[i] = plan{req: &reqs[i], anx: float64(rng.Intn(40)) / 40}
		set[i] = placed{p: &plans[i], i: i}
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		set[i], set[j] = set[j], set[i]
	}
	for _, order := range []struct {
		name string
		less func(a, b placed) bool
	}{
		{"outsiders", func(a, b placed) bool {
			if a.p.anx != b.p.anx {
				return a.p.anx > b.p.anx
			}
			return a.p.req.DeviceID < b.p.req.DeviceID
		}},
		{"insiders", func(a, b placed) bool {
			if a.p.anx != b.p.anx {
				return a.p.anx < b.p.anx
			}
			return a.p.req.DeviceID < b.p.req.DeviceID
		}},
	} {
		want := append([]placed(nil), set...)
		sort.SliceStable(want, func(a, b int) bool { return order.less(want[a], want[b]) })
		sc := planScratch{eligible: append([]placed(nil), set...)}
		s := mustScheduler(t, Config{Lambda: 1, MaxSwapPasses: 1})
		x := make([]bool, n)
		if order.name == "insiders" {
			for i := range x {
				x[i] = true
			}
		}
		s.phase2(&sc, x)
		got := sc.out
		if order.name == "insiders" {
			got = sc.in
		}
		if len(got) != n {
			t.Fatalf("%s: phase2 ranked %d of %d", order.name, len(got), n)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: rank %d is position %d (%s, %v), sort.SliceStable puts position %d (%s, %v) there",
					order.name, k, got[k].i, got[k].p.req.DeviceID, got[k].p.anx,
					want[k].i, want[k].p.req.DeviceID, want[k].p.anx)
			}
		}
	}
}

// TestBuildPlansChunkErrors: a batch's chunk windows are validated once
// per distinct slice, and the error is still the one the per-device,
// per-chunk check reported — the lowest failing request by index, with
// its first bad chunk — whether the bad window is shared, private, or
// sits behind a request that fails its own validation.
func TestBuildPlansChunkErrors(t *testing.T) {
	good := makeBigCluster(t, 6, 5)
	bad := append([]video.Chunk(nil), good[0].Chunks...)
	bad[3].BitrateKbps = 0
	bad[7].DurationSec = -1
	worse := append([]video.Chunk(nil), good[0].Chunks...)
	worse[1].Stats.PeakLuma = 2

	withWindows := func(edit func(reqs []Request)) []Request {
		reqs := append([]Request(nil), good...)
		edit(reqs)
		return reqs
	}
	for _, tc := range []struct {
		name string
		reqs []Request
		want string
	}{
		{"all valid", good, ""},
		{"shared bad window, first viewer reported", withWindows(func(r []Request) {
			r[2].Chunks, r[4].Chunks, r[5].Chunks = bad, bad, bad
		}), "scheduler: request big-00002 chunk 3: video: chunk 3 has non-positive bitrate"},
		{"two bad windows, lower request wins", withWindows(func(r []Request) {
			r[4].Chunks, r[3].Chunks = bad, worse
		}), "scheduler: request big-00003 chunk 1: display: content statistic 2 outside [0, 1]"},
		{"request-level error ahead of a bad window", withWindows(func(r []Request) {
			r[1].Gamma, r[2].Chunks = 1.5, bad
		}), "scheduler: request big-00001: gamma 1.5 outside (0, 1)"},
		{"bad window ahead of a request-level error", withWindows(func(r []Request) {
			r[1].Chunks, r[2].Gamma = bad, 1.5
		}), "scheduler: request big-00001 chunk 3: video: chunk 3 has non-positive bitrate"},
	} {
		for _, arm := range []struct {
			name     string
			schedule func([]Request) error
		}{
			{"cold", func(reqs []Request) error {
				_, err := mustScheduler(t, Config{Lambda: 1}).Schedule(reqs)
				return err
			}},
			{"pool stream", func(reqs []Request) error {
				// The pool names the VC around the scheduler's error.
				_, err := mustSlotStream(t, Config{Lambda: 1}).Schedule(reqs)
				return errors.Unwrap(err)
			}},
		} {
			got := ""
			if err := arm.schedule(tc.reqs); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("%s (%s): error %q, want %q", tc.name, arm.name, got, tc.want)
			}
		}
		// The single-request entry reports the same text.
		if tc.want != "" {
			s := mustScheduler(t, Config{Lambda: 1})
			var first error
			for i := range tc.reqs {
				var p plan
				if first = s.buildPlan(&tc.reqs[i], &p); first != nil {
					break
				}
			}
			if first == nil || first.Error() != tc.want {
				t.Fatalf("%s: buildPlan reports %v, want %q", tc.name, first, tc.want)
			}
		}
	}
}
