// Quickstart: run one LPVS emulation against the no-transform baseline
// and print the headline metrics of the paper — display energy saving,
// anxiety reduction, and watching-time extension for low-battery users.
package main

import (
	"fmt"
	"log"

	"lpvs"
)

func main() {
	// 1. A calibrated synthetic survey supplies the give-up behaviour of
	//    viewers (at what battery level they abandon a video).
	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())
	fmt.Printf("survey: %d users, %.1f%% suffer low-battery anxiety\n",
		ds.N(), 100*ds.LBARate())

	// 2. Extract the anxiety curve phi(e) with the paper's four-step
	//    procedure — the quantitative model LPVS optimises against.
	curve, err := lpvs.ExtractAnxietyCurve(ds.ChargeThresholds())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anxiety at 20%% battery: %.2f (sharp increase at the warning level)\n\n",
		curve.AtLevel(20))

	// 3. Emulate a virtual cluster of 80 mobile viewers watching a live
	//    gaming stream for six hours, with LPVS transforming video at the
	//    edge, and compare against the identical workload without LPVS.
	cfg := lpvs.EmulationConfig{
		Seed:          1,
		GroupSize:     80,
		Slots:         72, // 72 x 5 min = 6 h
		Lambda:        1,  // balance energy saving vs anxiety reduction
		ServerStreams: lpvs.UnboundedCapacity,
		Genre:         lpvs.GenreGaming,
	}
	cfg.GiveUpSampler = lpvs.SurveyGiveUpSampler(ds)

	cmp, err := lpvs.RunComparison(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("display energy saving:  %.1f%%  (paper: ~35%%)\n", 100*cmp.EnergySavingRatio())
	fmt.Printf("anxiety reduction:      %.1f%%  (paper: ~7%%)\n", 100*cmp.AnxietyReduction())
	base, treated, gain := cmp.TPVGain()
	fmt.Printf("low-battery viewing:    %.0f min -> %.0f min (%+.0f%%, paper: +39%%)\n",
		base, treated, 100*gain)
}
