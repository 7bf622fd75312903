package slo

import (
	"strings"
	"testing"
	"time"

	"lpvs/internal/obs"
)

// fakeCounters is a deterministic Source backed by plain fields.
type fakeCounters struct{ bad, total float64 }

func (f *fakeCounters) source() Source {
	return func() (float64, float64) { return f.bad, f.total }
}

// fakeClock steps a synthetic time by a fixed interval per reading.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance()       { c.t = c.t.Add(c.step) }

func newEngine(t *testing.T, cfg Config, objs ...Objective) *Engine {
	t.Helper()
	e, err := NewEngine(cfg, objs...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBurnRateAlarmsAndClears(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0), step: 10 * time.Second}
	ctr := &fakeCounters{}
	var transitions []string
	e := newEngine(t, Config{
		Now: clock.now,
		OnTransition: func(st State) {
			dir := "clear"
			if st.Alarming {
				dir = "fire"
			}
			transitions = append(transitions, dir)
		},
	}, Objective{
		Name:   "tick-latency",
		Target: 0.99,
		Source: ctr.source(),
	})

	// Healthy traffic: 100 good events per step for 5 minutes.
	for i := 0; i < 30; i++ {
		ctr.total += 100
		st := e.Evaluate()[0]
		if st.Alarming {
			t.Fatalf("step %d: alarming on healthy traffic: %+v", i, st)
		}
		clock.advance()
	}

	// Sustained 50% bad traffic: burn = 0.5/0.01 = 50 >> 10. The slow
	// window dilutes first, so the alarm fires only once both windows
	// breach.
	fired := -1
	for i := 0; i < 30; i++ {
		ctr.total += 100
		ctr.bad += 50
		st := e.Evaluate()[0]
		if st.Alarming && fired < 0 {
			fired = i
		}
		clock.advance()
	}
	if fired < 0 {
		t.Fatal("sustained 50% bad traffic never alarmed")
	}

	// Recovery: good traffic again. The fast window clears within a
	// minute, dropping the alarm even though the slow window is still
	// polluted — exactly the multi-window point.
	cleared := -1
	for i := 0; i < 12; i++ {
		ctr.total += 100
		st := e.Evaluate()[0]
		if !st.Alarming && cleared < 0 {
			cleared = i
		}
		clock.advance()
	}
	if cleared < 0 {
		t.Fatal("alarm never cleared after recovery")
	}
	if cleared > 7 {
		t.Fatalf("fast window should clear within ~a minute of recovery, took %d steps", cleared)
	}
	if len(transitions) != 2 || transitions[0] != "fire" || transitions[1] != "clear" {
		t.Fatalf("transitions = %v, want [fire clear]", transitions)
	}
}

func TestShortBlipDoesNotAlarm(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0), step: 10 * time.Second}
	ctr := &fakeCounters{}
	e := newEngine(t, Config{Now: clock.now}, Objective{
		Name: "degraded-ticks", Target: 0.99, Source: ctr.source(),
	})
	// Build healthy history over the whole slow window.
	for i := 0; i < 30; i++ {
		ctr.total += 100
		e.Evaluate()
		clock.advance()
	}
	// One bad step out of 30 in the slow window: slow burn stays low,
	// so no alarm even though the fast window briefly breaches.
	ctr.total += 100
	ctr.bad += 100
	if st := e.Evaluate()[0]; st.Alarming {
		t.Fatalf("one blip alarmed: %+v", st)
	}
	clock.advance()
	for i := 0; i < 5; i++ {
		ctr.total += 100
		if st := e.Evaluate()[0]; st.Alarming {
			t.Fatalf("blip aftermath alarmed: %+v", st)
		}
		clock.advance()
	}
}

func TestBudgetRemainingLifetime(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Second}
	ctr := &fakeCounters{bad: 1, total: 200}
	e := newEngine(t, Config{Now: clock.now}, Objective{
		Name: "x", Target: 0.99, Source: ctr.source(),
	})
	st := e.Evaluate()[0]
	// badRatio 0.005 of a 0.01 budget: half the budget left.
	if st.BudgetRemaining < 0.49 || st.BudgetRemaining > 0.51 {
		t.Fatalf("budget remaining = %v, want ~0.5", st.BudgetRemaining)
	}
	if st.BadRatio != 0.005 {
		t.Fatalf("bad ratio = %v", st.BadRatio)
	}
}

func TestCounterResetTolerated(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Second}
	ctr := &fakeCounters{bad: 50, total: 100}
	e := newEngine(t, Config{Now: clock.now}, Objective{
		Name: "x", Target: 0.99, Source: ctr.source(),
	})
	e.Evaluate()
	clock.advance()
	// Reset: counters jump backwards. Burn must come out 0, not negative
	// or huge.
	ctr.bad, ctr.total = 0, 10
	st := e.Evaluate()[0]
	for _, w := range st.Windows {
		if w.BurnRate != 0 || w.Events != 0 {
			t.Fatalf("window after reset: %+v", w)
		}
	}
}

func TestNoTrafficNoBurn(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Second}
	ctr := &fakeCounters{}
	e := newEngine(t, Config{Now: clock.now}, Objective{
		Name: "x", Target: 0.999, Source: ctr.source(),
	})
	for i := 0; i < 5; i++ {
		st := e.Evaluate()[0]
		if st.Alarming || st.Windows[0].BurnRate != 0 {
			t.Fatalf("idle engine burned: %+v", st)
		}
		clock.advance()
	}
}

func TestRegisterExposesSeries(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0), step: time.Second}
	ctr := &fakeCounters{bad: 5, total: 100}
	e := newEngine(t, Config{Now: clock.now}, Objective{
		Name: "tick-latency", Target: 0.99, Source: ctr.source(),
	})
	reg := obs.NewRegistry()
	e.Register(reg)
	e.Evaluate()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`lpvs_slo_target{slo="tick-latency"} 0.99`,
		`lpvs_slo_bad_ratio{slo="tick-latency"} 0.05`,
		`lpvs_slo_burn_rate{slo="tick-latency",window="fast"}`,
		`lpvs_slo_burn_rate{slo="tick-latency",window="slow"}`,
		`lpvs_slo_alarm{slo="tick-latency"} 0`,
		`lpvs_slo_error_budget_remaining{slo="tick-latency"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestValidation(t *testing.T) {
	src := func() (float64, float64) { return 0, 0 }
	cases := []struct {
		name string
		objs []Objective
	}{
		{"bad target", []Objective{{Name: "a", Target: 1, Source: src}}},
		{"no name", []Objective{{Target: 0.9, Source: src}}},
		{"no source", []Objective{{Name: "a", Target: 0.9}}},
		{"dup name", []Objective{{Name: "a", Target: 0.9, Source: src}, {Name: "a", Target: 0.9, Source: src}}},
	}
	for _, c := range cases {
		if _, err := NewEngine(Config{}, c.objs...); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestSnapshotWithoutSampling(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Second}
	ctr := &fakeCounters{bad: 1, total: 10}
	e := newEngine(t, Config{Now: clock.now}, Objective{
		Name: "x", Target: 0.9, Source: ctr.source(),
	})
	if got := e.Snapshot(); len(got) != 1 || got[0].TotalEvents != 0 {
		t.Fatalf("pre-evaluate snapshot = %+v", got)
	}
	e.Evaluate()
	ctr.total = 1000 // must not leak into the snapshot
	if got := e.Snapshot()[0]; got.TotalEvents != 10 {
		t.Fatalf("snapshot resampled: %+v", got)
	}
}
