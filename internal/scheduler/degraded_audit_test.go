package scheduler_test

// Closes the anytime-degradation loop through the audit log: decisions
// produced under an expired deadline are written with their recorded
// Degradation, survive the JSONL round trip, and Replay() — which
// forces the recorded shortcuts instead of re-racing the clock —
// reproduces every degraded decision byte for byte (DESIGN.md §12).

import (
	"bytes"
	"context"
	"testing"
	"time"

	"lpvs/internal/obs/audit"
	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
)

func TestAuditRoundTripDegradedRecords(t *testing.T) {
	base := scheduler.MakeClusterForTest(t, 64, 321)
	rng := stats.NewRNG(20260808)

	var buf bytes.Buffer
	var want []string
	degraded := 0
	for inst := 0; inst < 40; inst++ {
		vcs, cfg := scheduler.RandomInstanceForTest(rng, base)
		pool, err := scheduler.NewPool(cfg, scheduler.PoolConfig{Workers: 1})
		if err != nil {
			t.Fatalf("instance %d: %v", inst, err)
		}
		s := pool.Scheduler()
		var res scheduler.PoolResult
		for _, vc := range vcs {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
			err := pool.DecideInto(ctx, []scheduler.VC{vc}, &res)
			cancel()
			if err != nil {
				t.Fatalf("instance %d vc %s: %v", inst, vc.ID, err)
			}
			dec := res.Decision()
			if dec.Degraded.Any() {
				degraded++
			}
			rec := audit.NewRecord(inst, vc.ID, s.Config(), vc.Requests, dec)
			if (rec.Degraded != nil) != dec.Degraded.Any() {
				t.Fatalf("instance %d vc %s: record degradation mismatch", inst, vc.ID)
			}
			line, err := rec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			want = append(want, string(dec.Canonical()))
		}
	}
	if degraded == 0 {
		t.Fatal("corpus produced no degraded decisions; the test is vacuous")
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
