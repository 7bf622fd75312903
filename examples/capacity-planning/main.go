// Capacity-planning: how much edge hardware does a virtual cluster
// need? The paper sizes its edge at ~100 concurrent transforms from the
// Nokia AirFrame datasheet; an operator instead asks the question
// backwards — given my audience, how much transform capacity buys how
// much energy saving and anxiety reduction? This example sweeps the
// capacity and finds the knee.
package main

import (
	"fmt"
	"log"

	"lpvs"
)

func main() {
	const groupSize = 240
	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())

	fmt.Printf("cluster: %d viewers; sweeping edge capacity\n\n", groupSize)
	fmt.Printf("%10s %15s %18s %14s\n", "capacity", "energy-saving", "anxiety-reduction", "of-unbounded")

	// The unbounded ceiling first.
	ceiling := runWith(ds, groupSize, lpvs.UnboundedCapacity)
	for _, streams := range []int{25, 50, 100, 200, 400, 600} {
		cmp := runWith(ds, groupSize, streams)
		fmt.Printf("%10d %14.2f%% %17.2f%% %13.0f%%\n",
			streams,
			100*cmp.EnergySavingRatio(),
			100*cmp.AnxietyReduction(),
			100*cmp.EnergySavingRatio()/ceiling.EnergySavingRatio())
	}
	fmt.Printf("%10s %14.2f%% %17.2f%% %13s\n",
		"unbounded", 100*ceiling.EnergySavingRatio(), 100*ceiling.AnxietyReduction(), "100%")

	fmt.Println("\nreading the sweep: savings grow nearly linearly until the capacity")
	fmt.Println("covers the cluster, then flatten — provision to the knee, not the peak.")
}

func runWith(ds *lpvs.SurveyDataset, groupSize, streams int) *lpvs.Comparison {
	cfg := lpvs.EmulationConfig{
		Seed:          11,
		GroupSize:     groupSize,
		Slots:         12,
		Lambda:        1,
		ServerStreams: streams,
		Genre:         lpvs.GenreGaming,
	}
	cfg.GiveUpSampler = lpvs.SurveyGiveUpSampler(ds)
	cmp, err := lpvs.RunComparison(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return cmp
}
