package audit

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/scheduler"
)

// nodeCappedFixture is one record written by commit 5d6406f, the last
// build whose Phase-1 bound was the Dantzig bound alone, for
// nodeCappedInstance: ten 1080p devices (2.25 compute units each) on a
// ten-unit server — four fit, with a unit to spare — and max_nodes 20.
// The spare unit kept that build's bound a fraction of a device above
// greedy's four best, so its search enumerated ties until the limit and
// logged optimal=false; the selection it logged is nonetheless the
// optimum, which this build's bound proves at the root.
// RECORD_PARENT_GOLDEN=1 rewrites it from the build under test — only
// meaningful from a checkout of that commit, with this file copied in.
const nodeCappedFixture = "record.nodecapped.jsonl"

const nodeCappedHint = "logged search was node-capped; this build proves the selection"

func nodeCappedInstance(t *testing.T) (scheduler.Config, []scheduler.Request) {
	t.Helper()
	server, err := edge.NewServer(10)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]scheduler.Request, 10)
	for i := range reqs {
		f := float64(i)
		reqs[i] = fixedRequest(fmt.Sprintf("dev-%02d", i), i%2 == 0, 0.20+0.07*f, 0.25+0.02*f)
		reqs[i].Display.Resolution = display.Res1080p
	}
	return scheduler.Config{SlotSec: 30, Lambda: 1, Server: server, MaxNodes: 20}, reqs
}

func readNodeCappedFixture(t *testing.T) *Record {
	t.Helper()
	if os.Getenv("RECORD_PARENT_GOLDEN") != "" {
		cfg, reqs := nodeCappedInstance(t)
		s, err := scheduler.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := s.Schedule(reqs)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecord(3, "slot-3", s.Config(), reqs, dec)
		rec.Seed, rec.UnixSec = 42, 1754400000.5
		line, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", nodeCappedFixture), line, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Decode(bytes.TrimSpace(readGolden(t, nodeCappedFixture)))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestReplayExplainsNodeCappedRecord: the parent-written record stays a
// mismatch — Replay is strict — but the diff says why, and only then.
func TestReplayExplainsNodeCappedRecord(t *testing.T) {
	rec := readNodeCappedFixture(t)
	if !strings.Contains(string(rec.DecisionCanonical), " optimal=false ") || rec.Degraded != nil || rec.Config.MaxNodes != 20 {
		t.Fatalf("fixture is not a node-capped, non-degraded record: max_nodes %d, degraded %v\n%s",
			rec.Config.MaxNodes, rec.Degraded, rec.DecisionCanonical)
	}
	res, err := rec.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("a record logged optimal=false matched a replay that proves optimality")
	}
	if want := strings.Replace(string(rec.DecisionCanonical), " optimal=false ", " optimal=true ", 1); res.Got != want {
		t.Fatalf("replay moved more than the optimality flag:\n--- logged ---\n%s--- replayed ---\n%s", rec.DecisionCanonical, res.Got)
	}
	if diff := res.Diff(); strings.Count(diff, nodeCappedHint+"\n") != 1 {
		t.Fatalf("diff does not carry the hint exactly once:\n%s", diff)
	}
	if diverged, err := ReplayAll([]*Record{rec}, nil); err != nil || diverged != 1 {
		t.Fatalf("ReplayAll: diverged %v, err %v; want the record flagged", diverged, err)
	}

	// Anything else moving withdraws the explanation.
	forged := func(name string, edit func(*ReplayResult)) {
		r := *res
		edit(&r)
		if strings.Contains(r.Diff(), nodeCappedHint) {
			t.Errorf("%s: hint printed", name)
		}
	}
	forged("transform line differs", func(r *ReplayResult) {
		r.Want = strings.Replace(r.Want, "dev-00=", "dev-0x=", 1)
	})
	forged("phase-1 value fell", func(r *ReplayResult) {
		r.Got = strings.Replace(r.Got, " phase1=", " phase1=-", 1)
	})
	forged("counter differs", func(r *ReplayResult) {
		r.Got = strings.Replace(r.Got, "selected=", "selected=1", 1)
	})
	forged("reason differs", func(r *ReplayResult) {
		r.ReasonDiffs = []string{"dev-00: replayed phase1-energy != logged capacity"}
	})
	forged("logged search had finished", func(r *ReplayResult) {
		r.Want = strings.Replace(r.Want, " optimal=false ", " optimal=true ", 1)
		r.Got = strings.Replace(r.Got, "=true\n", "=false\n", 1)
	})
	forged("unparseable header", func(r *ReplayResult) { r.Want = "garbage\n" })
}
