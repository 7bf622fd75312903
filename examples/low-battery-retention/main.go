// Low-battery-retention: the paper's Fig. 9 / customer-retention story.
// Over 20% of mobile viewers abandon a video at 20% battery and about
// half below 10%; LPVS extends how long low-battery users keep watching
// by cutting their display power draw. This example measures time per
// viewer (TPV) for the low-battery cohort and the resulting retention.
package main

import (
	"fmt"
	"log"

	"lpvs"
	"lpvs/internal/device"
)

func main() {
	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())
	fmt.Printf("give-up behaviour from the survey: %.0f%% quit at <=20%% battery, %.0f%% at <=10%%\n\n",
		100*ds.GiveUpRateAt(20), 100*ds.GiveUpRateAt(10))

	cfg := lpvs.EmulationConfig{
		Seed:          7,
		GroupSize:     100,
		Slots:         96, // an 8-hour marathon stream
		Lambda:        1,
		ServerStreams: lpvs.UnboundedCapacity,
		Genre:         lpvs.GenreIRL,
	}
	cfg.GiveUpSampler = lpvs.SurveyGiveUpSampler(ds)

	cmp, err := lpvs.RunComparison(cfg)
	if err != nil {
		log.Fatal(err)
	}

	base, treated, gain := cmp.TPVGain()
	fmt.Printf("low-battery cohort (started <=40%% battery, served by LPVS): %d viewers\n", cmp.CohortSize())
	fmt.Printf("  time per viewer without LPVS: %6.1f min\n", base)
	fmt.Printf("  time per viewer with    LPVS: %6.1f min\n", treated)
	fmt.Printf("  extra watching time:          %6.1f min (%+.1f%%; paper: +38.8%%)\n\n",
		treated-base, 100*gain)

	// Retention: how many viewers were still watching when the stream
	// ended (or watched it to the end), under each regime?
	fmt.Printf("%-12s %10s %10s\n", "final state", "baseline", "with LPVS")
	for _, st := range []device.State{device.Finished, device.GaveUp, device.BatteryDead} {
		fmt.Printf("%-12s %10d %10d\n", st,
			countState(cmp.Baseline.FinalState, st),
			countState(cmp.Treated.FinalState, st))
	}
}

func countState(states []device.State, want device.State) int {
	n := 0
	for _, s := range states {
		if s == want {
			n++
		}
	}
	return n
}
