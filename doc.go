// Package lpvs is the public API of the LPVS reproduction: low-power
// video streaming at the network edge, scheduled to minimise the display
// energy and the low-battery anxiety (LBA) of mobile viewers.
//
// The library reproduces "Alleviating Low-Battery Anxiety of Mobile
// Users via Low-Power Video Streaming" (ICDCS 2020) end to end:
//
//   - a quantitative LBA model extracted from a (synthetic, calibrated)
//     2,032-user survey with the paper's cumulative-bin procedure;
//   - display power models for LCD and OLED panels and the Table I
//     catalogue of content-transforming energy savers;
//   - the LPVS scheduler: information compacting, a Phase-1 knapsack
//     solved with an exact branch-and-bound ILP solver, Phase-2
//     anxiety-driven swapping, and Bayesian learning of each device's
//     power-reduction ratio;
//   - a trace-driven emulator and an HTTP edge daemon with a device
//     client.
//
// # Quick start
//
// Run one paired emulation (LPVS vs no-transform), with viewers who
// give up at the battery levels the survey's respondents report, and
// read the headline metrics:
//
//	ds := lpvs.GenerateSurvey(lpvs.DefaultSurveyConfig())
//	cfg := lpvs.EmulationConfig{
//		Seed: 1, GroupSize: 80, Slots: 24,
//		Lambda: 1, ServerStreams: lpvs.UnboundedCapacity,
//		GiveUpSampler: lpvs.SurveyGiveUpSampler(ds),
//	}
//	cmp, err := lpvs.RunComparison(cfg)
//	if err != nil { ... }
//	fmt.Printf("energy saving: %.1f%%\n", 100*cmp.EnergySavingRatio())
//	fmt.Printf("anxiety reduction: %.1f%%\n", 100*cmp.AnxietyReduction())
//
// The examples directory contains runnable programs for the main
// scenarios, and cmd/lpvs-bench regenerates every table and figure of
// the paper.
package lpvs
