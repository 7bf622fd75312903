package emu

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/slo"
	"lpvs/internal/obs/span"
	"lpvs/internal/scheduler"
)

// TestEmulatorAuditLogReplays runs a capacity-bound session with
// auditing on and replays every logged decision byte for byte — the
// same loop make audit-replay runs in CI.
func TestEmulatorAuditLogReplays(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.GroupSize = 12
	cfg.Slots = 5
	cfg.ServerStreams = 4 // scarce: forces capacity rejections into the log
	cfg.AuditDir = dir
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cfg.Slots {
		t.Fatalf("got %d audit records, want %d", len(recs), cfg.Slots)
	}
	for i, rec := range recs {
		if rec.Slot != i {
			t.Fatalf("record %d logged as slot %d", i, rec.Slot)
		}
		if rec.Seed != cfg.Seed {
			t.Fatalf("record %d seed = %d, want %d", i, rec.Seed, cfg.Seed)
		}
		if len(rec.Verdicts) != cfg.GroupSize {
			t.Fatalf("record %d: %d verdicts for %d devices", i, len(rec.Verdicts), cfg.GroupSize)
		}
	}
	diverged, err := audit.ReplayAll(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d records diverged on replay", diverged)
	}
}

// TestEmulatorPooledAuditLogReplays covers a wide pool (Workers=4):
// compaction fans out, and the decisions must still replay serially.
func TestEmulatorPooledAuditLogReplays(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.GroupSize = 10
	cfg.Slots = 3
	cfg.Workers = 4
	cfg.AuditDir = dir
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cfg.Slots {
		t.Fatalf("got %d records, want %d", len(recs), cfg.Slots)
	}
	diverged, err := audit.ReplayAll(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d pooled records diverged on replay", diverged)
	}
}

// TestBaselinePolicyWritesNoAudit: audit records promise deterministic
// replay through the LPVS scheduler, so baseline policies must not
// produce any.
func TestBaselinePolicyWritesNoAudit(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.GroupSize = 6
	cfg.Slots = 2
	cfg.AuditDir = dir
	e, err := New(cfg, scheduler.NoTransform{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, audit.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("baseline wrote %d audit bytes:\n%s", len(data), data)
	}
}

// TestEmulatorSpanTreeMatchesSlotPipeline asserts one emulated slot
// traces as slot -> gather/schedule/play/bayes-update with the
// scheduler stages nested under schedule -> vc.
func TestEmulatorSpanTreeMatchesSlotPipeline(t *testing.T) {
	tr := span.NewTracer(span.Config{Sample: 1, Seed: 9})
	cfg := baseConfig()
	cfg.GroupSize = 6
	cfg.Slots = 1
	cfg.Tracer = tr
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	var trace string
	for _, d := range spans {
		if d.Name == "slot" {
			trace = d.TraceID
		}
	}
	if trace == "" {
		t.Fatalf("no slot span among %d spans", len(spans))
	}
	roots := span.Tree(spans, trace)
	if len(roots) != 1 || roots[0].Name != "slot" {
		t.Fatalf("slot trace roots: %+v", roots)
	}
	byName := map[string]*span.Node{}
	for _, c := range roots[0].Children {
		byName[c.Name] = c
	}
	for _, want := range []string{"gather", "schedule", "play", "bayes-update"} {
		if byName[want] == nil {
			t.Fatalf("slot span missing %q child (have %v)", want, names(roots[0].Children))
		}
	}
	// The engine is a pool at any width, so the stages hang off the
	// schedule span's one "vc" child, as they do under a daemon's tick.
	vcs := byName["schedule"].Children
	if len(vcs) != 1 || vcs[0].Name != "vc" {
		t.Fatalf("schedule children = %v, want [vc]", names(vcs))
	}
	stages := names(vcs[0].Children)
	if len(stages) != 3 || stages[0] != "compact" || stages[1] != "phase1" || stages[2] != "phase2" {
		t.Fatalf("vc stages = %v, want [compact phase1 phase2]", stages)
	}
}

func names(nodes []*span.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

// TestIncrementalAuditLogMatchesCold runs the identical session through
// a one-worker and a four-worker engine and asserts the audit logs carry
// byte-identical decisions slot for slot — Workers is a width, not a
// path — then replays the log: Record.Replay is a cold Schedule on a
// fresh Scheduler, so a match is the emulator-level end of the contract
// that a pool solving each slot in the scratch of the one before
// decides what a fresh solve decides.
func TestIncrementalAuditLogMatchesCold(t *testing.T) {
	run := func(workers int) []*audit.Record {
		t.Helper()
		dir := t.TempDir()
		cfg := baseConfig()
		cfg.GroupSize = 12
		cfg.Slots = 6
		cfg.ServerStreams = 4
		cfg.AuditDir = dir
		cfg.Workers = workers
		e, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		recs, err := audit.ReadFile(filepath.Join(dir, audit.FileName))
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	narrow := run(1)
	wide := run(4)
	if len(narrow) != len(wide) {
		t.Fatalf("one worker logged %d records, four %d", len(narrow), len(wide))
	}
	for i := range narrow {
		if narrow[i].DecisionCanonical != wide[i].DecisionCanonical {
			t.Fatalf("slot %d decisions diverged:\none worker: %s\nfour: %s",
				i, narrow[i].DecisionCanonical, wide[i].DecisionCanonical)
		}
	}
	diverged, err := audit.ReplayAll(narrow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diverged != 0 {
		t.Fatalf("%d records diverged from their cold replay", diverged)
	}
}

func TestRunEvaluatesSLO(t *testing.T) {
	e, err := New(baseConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SLO) != 2 {
		t.Fatalf("slo states = %+v, want 2 objectives", res.SLO)
	}
	names := map[string]bool{}
	for _, st := range res.SLO {
		names[st.Name] = true
		if st.TotalEvents != float64(res.SlotsRun) {
			t.Errorf("objective %s saw %v events, want %d", st.Name, st.TotalEvents, res.SlotsRun)
		}
		if len(st.Windows) != 2 {
			t.Errorf("objective %s windows = %+v", st.Name, st.Windows)
		}
	}
	if !names["slot-latency"] || !names["degraded-slots"] {
		t.Fatalf("objective names = %v", names)
	}
	// No deadline configured: no slot can degrade, so that objective's
	// budget must be untouched and nothing may alarm.
	for _, st := range res.SLO {
		if st.Name == "degraded-slots" && (st.BadEvents != 0 || st.Alarming) {
			t.Fatalf("degraded-slots state = %+v", st)
		}
	}
}

func TestSLOAlarmsOnSustainedSlowSlots(t *testing.T) {
	cfg := baseConfig()
	// A 1ns latency budget makes every slot a bad event, so both burn
	// windows must breach and the alarm must fire exactly once.
	cfg.SLOSlotLatency = time.Nanosecond
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var lat *slo.State
	for i := range res.SLO {
		if res.SLO[i].Name == "slot-latency" {
			lat = &res.SLO[i]
		}
	}
	if lat == nil {
		t.Fatal("slot-latency objective missing")
	}
	if !lat.Alarming || lat.BadEvents != float64(res.SlotsRun) {
		t.Fatalf("slot-latency state = %+v", lat)
	}
	if res.SLOAlarms != 1 {
		t.Fatalf("slo alarms = %d, want 1", res.SLOAlarms)
	}
}
