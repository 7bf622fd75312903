package lpvs_test

import (
	"net/http/httptest"
	"testing"

	"lpvs"
)

// TestFacadeEndToEnd walks the whole public API the way the README's
// quickstart does: survey -> curve -> emulation -> paired metrics.
func TestFacadeEndToEnd(t *testing.T) {
	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())
	if ds.N() != 2032 {
		t.Fatalf("survey N = %d", ds.N())
	}
	curve, err := lpvs.ExtractAnxietyCurve(ds.ChargeThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if a := curve.AtLevel(20); a < 0.5 || a > 0.9 {
		t.Fatalf("anxiety at 20%% = %v", a)
	}

	cfg := lpvs.EmulationConfig{
		Seed:          1,
		GroupSize:     40,
		Slots:         10,
		Lambda:        1,
		ServerStreams: lpvs.UnboundedCapacity,
		Genre:         lpvs.GenreGaming,
	}
	cfg.GiveUpSampler = lpvs.SurveyGiveUpSampler(ds)
	cmp, err := lpvs.RunComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergySavingRatio() < 0.2 {
		t.Fatalf("saving %v", cmp.EnergySavingRatio())
	}
	if cmp.AnxietyReduction() <= 0 {
		t.Fatalf("anxiety reduction %v", cmp.AnxietyReduction())
	}
}

func TestFacadeScheduler(t *testing.T) {
	srv, err := lpvs.NewEdgeServer(10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := lpvs.NewScheduler(lpvs.SchedulerConfig{Lambda: 1, Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "lpvs" {
		t.Fatal("name")
	}
	dec, err := s.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Selected != 0 {
		t.Fatal("empty cluster selected devices")
	}
}

func TestFacadeBaselinePolicies(t *testing.T) {
	cfg := lpvs.SchedulerConfig{Lambda: 1}
	if _, err := lpvs.NewRandomPolicy(cfg, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := lpvs.NewGreedyBatteryPolicy(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := lpvs.NewJointKnapsackPolicy(cfg); err != nil {
		t.Fatal(err)
	}
	if lpvs.NoTransformPolicy().Name() != "no-transform" {
		t.Fatal("no-transform name")
	}
}

func TestFacadeTraceAndFleet(t *testing.T) {
	tcfg := lpvs.DefaultTraceConfig()
	tcfg.NumChannels = 6
	tcfg.TargetSessions = 12
	tcfg.MedianViewers = 80
	tr, err := lpvs.GenerateTrace(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lpvs.RunFleet(lpvs.FleetConfig{
		Trace:         tr,
		MaxChannels:   3,
		MaxSlots:      4,
		Lambda:        1,
		ServerStreams: lpvs.UnboundedCapacity,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Devices == 0 || res.EnergySaving <= 0 {
		t.Fatalf("fleet result %+v", res)
	}
}

func TestFacadeBehavior(t *testing.T) {
	cfg := lpvs.DefaultChargingLogConfig()
	cfg.Users = 100
	log, err := lpvs.GenerateChargingLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve, estimates, err := lpvs.EstimateAnxietyFromBehavior(log, lpvs.BehaviorEstimateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(estimates) == 0 {
		t.Fatal("no estimates")
	}
	if a := curve.Anxiety(0.05); a < 0.5 {
		t.Fatalf("behavioural anxiety at 5%% = %v", a)
	}
}

func TestFacadeEdgeService(t *testing.T) {
	stream, err := lpvs.GenerateVideo(lpvs.NewRNG(1), lpvs.DefaultVideoConfig("s", lpvs.GenreIRL, 60))
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := lpvs.NewEdgeDaemon(lpvs.EdgeDaemonConfig{Stream: stream, ServerStreams: -1, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(daemon.Handler())
	defer ts.Close()

	fleet, err := lpvs.NewDeviceFleet(lpvs.NewRNG(2), 3, lpvs.DefaultDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := lpvs.NewDeviceClient(ts.URL, fleet[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := lpvs.NewClientFleet(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clients.Report(); err != nil {
		t.Fatal(err)
	}
}
