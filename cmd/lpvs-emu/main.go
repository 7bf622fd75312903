// Command lpvs-emu runs one paired LPVS emulation (treated vs
// no-transform baseline) and prints the headline metrics.
//
// Usage:
//
//	lpvs-emu -n 100 -slots 24 -lambda 1 -capacity -1
//	lpvs-emu -n 300 -capacity 100 -policy random
//	lpvs-emu -n 100 -metrics - | grep lpvs_tick_duration
//
// The -metrics flag dumps the treated run in the same Prometheus text
// vocabulary a live lpvsd exposes on /metrics, so emulation campaigns
// and production scrapes are directly comparable; -progress streams
// per-slot structured logs while the emulation runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"lpvs"
	"lpvs/internal/obs"
)

func main() {
	var (
		n        = flag.Int("n", 100, "virtual-cluster size")
		slots    = flag.Int("slots", 24, "stream length in 5-minute slots")
		lambda   = flag.Float64("lambda", 1, "energy/anxiety balance")
		capacity = flag.Int("capacity", lpvs.UnboundedCapacity, "edge capacity in 720p streams (-1 = unbounded)")
		seed     = flag.Int64("seed", 1, "random seed")
		policy   = flag.String("policy", "lpvs", "policy: lpvs, random, greedy-battery, joint")
		jsonOut  = flag.String("json", "", "write the paired comparison as JSON to this file")
		timeline = flag.Bool("timeline", false, "print the per-slot timeline of the treated run")
		genre    = flag.String("genre", "Gaming", "stream genre (Gaming, Esports, IRL, Music, Sports)")
		streams  = flag.Int("streams", 1, "distinct live streams in the cluster")
		frames   = flag.Bool("frames", false, "use the per-pixel keyframe transform engine")
		personal = flag.Bool("personalized", false, "schedule against per-user anxiety curves")
		metrics  = flag.String("metrics", "", "write the treated run's Prometheus metrics dump to this file (\"-\" = stdout)")
		progress = flag.Bool("progress", false, "stream per-slot structured logs to stderr while running")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "scheduling pool fan-out for the lpvs policy (1 = serial)")
		auditDir = flag.String("audit-dir", "", "append per-slot decision audit records to DIR/audit.jsonl (lpvs policy only; replayable with lpvsctl audit replay)")
		deadline = flag.Duration("sched-deadline", 0, "per-slot scheduling wall-clock budget; expired slots degrade to the anytime shortcuts (lpvs policy only; 0 = unbounded)")
	)
	flag.Parse()

	g, err := parseGenre(*genre)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lpvs.EmulationConfig{
		Seed:                *seed,
		GroupSize:           *n,
		Slots:               *slots,
		Lambda:              *lambda,
		ServerStreams:       *capacity,
		Genre:               g,
		Streams:             *streams,
		UseFrames:           *frames,
		PersonalizedAnxiety: *personal,
		Workers:             *workers,
		AuditDir:            *auditDir,
		SchedDeadline:       *deadline,
	}
	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())
	cfg.GiveUpSampler = lpvs.SurveyGiveUpSampler(ds)

	if *progress {
		logger, lerr := obs.NewLogger(os.Stderr, "info", "text")
		if lerr != nil {
			log.Fatal(lerr)
		}
		cfg.Progress = func(policy string, st lpvs.SlotStat) {
			logger.Info("slot",
				"policy", policy, "slot", st.Slot,
				"watching", st.Watching, "eligible", st.Eligible,
				"selected", st.Selected, "swaps", st.Swaps,
				"mean_energy", st.MeanEnergyFrac, "mean_anxiety", st.MeanAnxiety,
				"sched_ms", st.SchedSec*1000)
		}
	}

	var cmp *lpvs.Comparison
	switch *policy {
	case "lpvs":
		cmp, err = lpvs.RunComparison(cfg)
	default:
		p, perr := buildPolicy(*policy, cfg, *seed)
		if perr != nil {
			log.Fatal(perr)
		}
		cmp, err = lpvs.RunPolicyComparison(cfg, p)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy:             %s\n", cmp.Treated.Policy)
	fmt.Printf("cluster:            %d devices, %d slots (%.0f min)\n",
		*n, cmp.Treated.SlotsRun, float64(cmp.Treated.SlotsRun)*5)
	fmt.Printf("energy saving:      %.2f%%\n", 100*cmp.EnergySavingRatio())
	fmt.Printf("anxiety reduction:  %.2f%%\n", 100*cmp.AnxietyReduction())
	base, treated, gain := cmp.TPVGain()
	fmt.Printf("low-battery TPV:    %.1f min -> %.1f min (%+.1f%%, cohort %d)\n",
		base, treated, 100*gain, cmp.CohortSize())
	fmt.Printf("scheduler time:     %.3f s over %d slots\n",
		cmp.Treated.SchedSeconds, cmp.Treated.SlotsRun)
	if *deadline > 0 {
		fmt.Printf("degraded slots:     %d of %d (deadline %v)\n",
			cmp.Treated.DegradedSlots, cmp.Treated.SlotsRun, *deadline)
	}

	if *timeline {
		fmt.Println("\nslot  watching  selected  mean-energy  mean-anxiety")
		for _, st := range cmp.Treated.Timeline {
			fmt.Printf("%4d  %8d  %8d  %10.1f%%  %12.3f\n",
				st.Slot, st.Watching, st.Selected, 100*st.MeanEnergyFrac, st.MeanAnxiety)
		}
	}

	if *metrics != "" {
		out := os.Stdout
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := cmp.Treated.WriteMetrics(out); err != nil {
			log.Fatal(err)
		}
		if *metrics != "-" {
			fmt.Printf("metrics dump written to %s\n", *metrics)
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := cmp.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("comparison written to %s\n", *jsonOut)
	}
}

func parseGenre(name string) (lpvs.VideoGenre, error) {
	for _, g := range []lpvs.VideoGenre{lpvs.GenreGaming, lpvs.GenreEsports, lpvs.GenreIRL, lpvs.GenreMusic, lpvs.GenreSports} {
		if g.String() == name {
			return g, nil
		}
	}
	return 0, fmt.Errorf("unknown genre %q", name)
}

func buildPolicy(name string, cfg lpvs.EmulationConfig, seed int64) (lpvs.Policy, error) {
	scfg, err := schedulerConfig(cfg)
	if err != nil {
		return nil, err
	}
	switch name {
	case "random":
		return lpvs.NewRandomPolicy(scfg, seed)
	case "greedy-battery":
		return lpvs.NewGreedyBatteryPolicy(scfg)
	case "joint":
		return lpvs.NewJointKnapsackPolicy(scfg)
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func schedulerConfig(cfg lpvs.EmulationConfig) (lpvs.SchedulerConfig, error) {
	scfg := lpvs.SchedulerConfig{Lambda: cfg.Lambda}
	if cfg.ServerStreams >= 0 {
		srv, err := lpvs.NewEdgeServer(cfg.ServerStreams)
		if err != nil {
			return scfg, err
		}
		scfg.Server = srv
	}
	return scfg, nil
}
