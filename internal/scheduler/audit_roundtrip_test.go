package scheduler_test

// The audit round-trip harness lives here (as an external test package)
// rather than in internal/obs/audit so it can share the exact
// differential-corpus generator of TestPoolVsSerialDifferential: the
// same 210 randomized instances that prove pool == serial also prove
// write -> decode -> replay reproduces every decision byte for byte.

import (
	"bytes"
	"context"
	"testing"

	"lpvs/internal/obs/audit"
	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
)

func TestAuditRoundTripDifferentialCorpus(t *testing.T) {
	base := scheduler.MakeClusterForTest(t, 64, 999)
	rng := stats.NewRNG(20260805)
	const instances = 210

	var buf bytes.Buffer
	var want []string
	for inst := 0; inst < instances; inst++ {
		vcs, cfg := scheduler.RandomInstanceForTest(rng, base)
		s, err := scheduler.New(cfg)
		if err != nil {
			t.Fatalf("instance %d: %v", inst, err)
		}
		for _, vc := range vcs {
			dec, err := s.Schedule(vc.Requests)
			if err != nil {
				t.Fatalf("instance %d vc %s: %v", inst, vc.ID, err)
			}
			rec := audit.NewRecord(inst, vc.ID, s.Config(), vc.Requests, dec)
			line, err := rec.Encode()
			if err != nil {
				t.Fatalf("instance %d vc %s: encode: %v", inst, vc.ID, err)
			}
			buf.Write(line)
			want = append(want, string(dec.Canonical()))
		}
	}

	recs, err := audit.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("wrote %d records, read back %d", len(want), len(recs))
	}
	for i, rec := range recs {
		if string(rec.DecisionCanonical) != want[i] {
			t.Fatalf("record %d: JSONL round trip changed the canonical decision", i)
		}
		res, err := rec.Replay()
		if err != nil {
			t.Fatalf("record %d (slot %d, vc %s): %v", i, rec.Slot, rec.VC, err)
		}
		if !res.Match {
			t.Fatalf("record %d (slot %d, vc %s) diverged on replay:\n%s",
				i, rec.Slot, rec.VC, res.Diff())
		}
	}
}

// TestAuditRecordFromPoolDecision closes the loop with the sharded
// engine: a record logged from a pooled decision replays (serially)
// to the identical bytes.
func TestAuditRecordFromPoolDecision(t *testing.T) {
	base := scheduler.MakeClusterForTest(t, 64, 991)
	rng := stats.NewRNG(6)
	vcs, cfg := scheduler.RandomInstanceForTest(rng, base)
	pool, err := scheduler.NewPool(cfg, scheduler.PoolConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var res scheduler.PoolResult
	if err := pool.DecideInto(context.Background(), vcs, &res); err != nil {
		t.Fatal(err)
	}
	byID := map[string][]scheduler.Request{}
	for _, vc := range vcs {
		byID[vc.ID] = vc.Requests
	}
	for _, vcd := range res.VCs {
		rec := audit.NewRecord(0, vcd.VC, pool.Scheduler().Config(), byID[vcd.VC], vcd.Decision)
		rres, err := rec.Replay()
		if err != nil {
			t.Fatalf("vc %s: %v", vcd.VC, err)
		}
		if !rres.Match {
			t.Fatalf("vc %s: pooled decision did not replay:\n%s", vcd.VC, rres.Diff())
		}
	}
}
