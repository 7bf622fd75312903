// Limited-edge: the paper's Fig. 8 scenario. One Nokia-AirFrame-class
// edge server can transform about 100 concurrent streams; when the
// virtual cluster outgrows it, LPVS must pick a subset, and the
// regularisation parameter lambda steers the choice between raw energy
// saving and rescuing the most battery-anxious viewers.
package main

import (
	"fmt"
	"log"

	"lpvs"
)

func main() {
	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())

	fmt.Println("edge capacity: 100 transform streams")
	fmt.Printf("%8s %10s %16s %18s\n", "cluster", "lambda", "energy-saving", "anxiety-reduction")

	for _, groupSize := range []int{100, 200, 400} {
		for _, lambda := range []float64{0, 1, 5} {
			cfg := lpvs.EmulationConfig{
				Seed:          int64(groupSize),
				GroupSize:     groupSize,
				Slots:         12,
				Lambda:        lambda,
				ServerStreams: 100,
				Genre:         lpvs.GenreEsports,
			}
			cfg.GiveUpSampler = lpvs.SurveyGiveUpSampler(ds)
			cmp, err := lpvs.RunComparison(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8d %10.1f %15.2f%% %17.2f%%\n",
				groupSize, lambda,
				100*cmp.EnergySavingRatio(), 100*cmp.AnxietyReduction())
		}
	}

	fmt.Println("\nreading the table:")
	fmt.Println(" - bigger clusters -> smaller served fraction -> less total saving;")
	fmt.Println(" - bigger lambda   -> selection shifts toward anxious (low-battery)")
	fmt.Println("   viewers: anxiety reduction holds or rises while energy saving dips.")
}
