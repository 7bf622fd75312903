// Package survey reproduces the paper's large-scale low-battery-anxiety
// (LBA) survey as a synthetic-respondent generator.
//
// The original study collected 2,032 effective answers over three months
// (section III-A, Table II). The raw data is not public, but the paper
// publishes every statistic the downstream pipeline consumes:
//
//   - 91.88% of respondents suffer LBA (1,867 / 2,032);
//   - nearly half of users give up watching an attractive video once the
//     battery drops below 10%, and over 20% already drop at 20%;
//   - the charge-threshold answers produce the Fig. 2 anxiety curve:
//     convex on [20%, 100%], concave on [0, 20%], with a sharp increase
//     at the 20% low-battery warning;
//   - demographic frequencies (gender, age, occupation, brand) per
//     Table II.
//
// This package generates respondent populations matching those moments,
// plus the data-cleansing step that discards malformed answers.
package survey

import (
	"fmt"
	"math"

	"lpvs/internal/stats"
)

// Gender is a survey demographic category.
type Gender int

// Gender values follow Table II.
const (
	Male Gender = iota
	Female
)

// String implements fmt.Stringer.
func (g Gender) String() string {
	if g == Male {
		return "Male"
	}
	return "Female"
}

// AgeGroup is a survey demographic bucket per Table II.
type AgeGroup int

// Age buckets per Table II.
const (
	AgeUnder18 AgeGroup = iota
	Age18to25
	Age25to35
	Age35to45
	Age45to65
)

var ageNames = [...]string{"Under 18", "18~25", "25~35", "35~45", "45~65"}

// String implements fmt.Stringer.
func (a AgeGroup) String() string {
	if int(a) < len(ageNames) {
		return ageNames[a]
	}
	return fmt.Sprintf("AgeGroup(%d)", int(a))
}

// Occupation is a survey demographic bucket per Table II.
type Occupation int

// Occupation buckets per Table II.
const (
	Student Occupation = iota
	GovInst
	Company
	Freelance
	OtherOccupation
)

var occNames = [...]string{"Student", "Gov/Inst", "Company", "Freelance", "Others"}

// String implements fmt.Stringer.
func (o Occupation) String() string {
	if int(o) < len(occNames) {
		return occNames[o]
	}
	return fmt.Sprintf("Occupation(%d)", int(o))
}

// Brand is the respondent's smartphone brand per Table II.
type Brand int

// Brand buckets per Table II.
const (
	IPhone Brand = iota
	Huawei
	Xiaomi
	OtherBrand
)

var brandNames = [...]string{"iPhone", "Huawei", "Xiaomi", "Others"}

// String implements fmt.Stringer.
func (b Brand) String() string {
	if int(b) < len(brandNames) {
		return brandNames[b]
	}
	return fmt.Sprintf("Brand(%d)", int(b))
}

// Respondent is one (synthetic) survey answer sheet.
type Respondent struct {
	ID         int
	Gender     Gender
	Age        AgeGroup
	Occupation Occupation
	Brand      Brand

	// SuffersLBA reports whether the respondent self-identifies as
	// experiencing low-battery anxiety at all.
	SuffersLBA bool

	// ChargeThreshold answers "At what battery level (1..100) will you
	// charge your mobile phone, when it is possible?" — the question the
	// Fig. 2 anxiety curve is extracted from.
	ChargeThreshold int

	// GiveUpThreshold answers "At what battery level (1..100) will you
	// give up watching a video you are interested in?" — the question
	// behind the Fig. 9 time-per-viewer analysis.
	GiveUpThreshold int
}

// Valid reports whether the answer sheet survives data cleansing:
// thresholds must lie in [1, 100] and a user gives up watching no later
// than they would start worrying enough to charge.
func (r Respondent) Valid() bool {
	return r.ChargeThreshold >= 1 && r.ChargeThreshold <= 100 &&
		r.GiveUpThreshold >= 1 && r.GiveUpThreshold <= 100 &&
		r.GiveUpThreshold <= r.ChargeThreshold
}

// Dataset is a cleansed collection of respondents.
type Dataset struct {
	Respondents []Respondent
	// Discarded counts the raw answer sheets dropped during cleansing.
	Discarded int
}

// N returns the number of effective (cleansed) answers.
func (d *Dataset) N() int { return len(d.Respondents) }

// ChargeThresholds returns the charge-threshold answers, the input of
// the anxiety-curve extraction.
func (d *Dataset) ChargeThresholds() []int {
	out := make([]int, 0, len(d.Respondents))
	for _, r := range d.Respondents {
		out = append(out, r.ChargeThreshold)
	}
	return out
}

// GiveUpThresholds returns the video give-up answers.
func (d *Dataset) GiveUpThresholds() []int {
	out := make([]int, 0, len(d.Respondents))
	for _, r := range d.Respondents {
		out = append(out, r.GiveUpThreshold)
	}
	return out
}

// LBARate returns the fraction of respondents reporting low-battery
// anxiety (paper: 0.9188).
func (d *Dataset) LBARate() float64 {
	if len(d.Respondents) == 0 {
		return 0
	}
	n := 0
	for _, r := range d.Respondents {
		if r.SuffersLBA {
			n++
		}
	}
	return float64(n) / float64(len(d.Respondents))
}

// GiveUpRateAt returns the fraction of respondents who abandon video
// watching at or above the given battery level (percent). The paper
// reports >20% at level 20 and about 50% at level 10.
func (d *Dataset) GiveUpRateAt(level int) float64 {
	if len(d.Respondents) == 0 {
		return 0
	}
	n := 0
	for _, r := range d.Respondents {
		if r.GiveUpThreshold >= level {
			n++
		}
	}
	return float64(n) / float64(len(d.Respondents))
}

// Config parameterises the synthetic survey generator. The zero value is
// not useful; start from DefaultConfig.
type Config struct {
	N       int   // effective answers to produce
	Seed    int64 // RNG seed
	LBARate float64

	// RawNoise is the fraction of additional malformed sheets generated
	// on top of N, exercising the cleansing step.
	RawNoise float64
}

// DefaultConfig matches the published study population.
func DefaultConfig() Config {
	return Config{N: 2032, Seed: 1, LBARate: 0.9188, RawNoise: 0.03}
}

// Generate produces a cleansed dataset of cfg.N effective answers. The
// generator first synthesises raw sheets — including deliberately
// malformed ones — and then applies cleansing, mirroring the paper's
// "2,032 effective answers after data cleansing".
func Generate(cfg Config) *Dataset {
	if cfg.N <= 0 {
		panic("survey: Generate requires N > 0")
	}
	rng := stats.NewRNG(cfg.Seed)
	ds := &Dataset{Respondents: make([]Respondent, 0, cfg.N)}
	id := 0
	for len(ds.Respondents) < cfg.N {
		id++
		r := genRespondent(rng, id, cfg)
		if rng.Bool(cfg.RawNoise) {
			corrupt(rng, &r)
		}
		if !r.Valid() {
			ds.Discarded++
			continue
		}
		ds.Respondents = append(ds.Respondents, r)
	}
	return ds
}

// Table II frequencies.
var (
	genderWeights = []float64{53.89, 46.11}
	ageWeights    = []float64{0.52, 51.45, 26.65, 14.48, 6.89}
	occWeights    = []float64{50.39, 13.34, 21.36, 7.09, 7.82}
	brandWeights  = []float64{36.27, 33.56, 11.22, 18.95}
)

func genRespondent(rng *stats.RNG, id int, cfg Config) Respondent {
	r := Respondent{
		ID:         id,
		Gender:     Gender(rng.Categorical(genderWeights)),
		Age:        AgeGroup(rng.Categorical(ageWeights)),
		Occupation: Occupation(rng.Categorical(occWeights)),
		Brand:      Brand(rng.Categorical(brandWeights)),
		SuffersLBA: rng.Bool(cfg.LBARate),
	}
	r.ChargeThreshold = sampleChargeThreshold(rng, r.SuffersLBA)
	r.GiveUpThreshold = sampleGiveUpThreshold(rng, r.ChargeThreshold)
	return r
}

// Shape constants of the published Fig. 2 curve used to synthesise
// charge-threshold answers: the survival function of the answers IS the
// anxiety curve, so sampling by inverse transform from the published
// shape reproduces it by construction.
const (
	warningFrac      = 0.20 // battery icon warning level
	anxietyAtWarning = 0.72 // curve value at the warning level
	convexPower      = 2.2  // decay exponent above the warning level
	concavePower     = 1.6  // rise exponent below the warning level
)

// sampleChargeThreshold draws the battery level at which a respondent
// charges, via inverse-transform sampling of the Fig. 2 survival
// function, plus an explicit point mass at the 20% warning level that
// models the icon-colour effect (the curve's sharp increase).
func sampleChargeThreshold(rng *stats.RNG, suffersLBA bool) int {
	if !suffersLBA {
		// Indifferent users charge opportunistically at very low levels.
		return clampInt(int(rng.Uniform(1, 15)), 1, 100)
	}
	if rng.Bool(0.08) {
		// "I charge when the icon turns red at 20%."
		return 20
	}
	u := rng.Float64() // target survival value
	var e float64      // energy fraction with phi(e) = u
	if u <= anxietyAtWarning {
		e = 1 - (1-warningFrac)*math.Pow(u/anxietyAtWarning, 1/convexPower)
	} else {
		e = warningFrac * math.Pow((1-u)/(1-anxietyAtWarning), 1/concavePower)
	}
	return clampInt(int(e*100+0.5), 1, 100)
}

// sampleGiveUpThreshold draws the battery level at which a respondent
// abandons a video. Calibrated to the paper: about half give up below
// 10%, over 20% give up at 20%, and nobody gives up above the level at
// which they would already be charging.
func sampleGiveUpThreshold(rng *stats.RNG, charge int) int {
	var v int
	switch rng.Categorical([]float64{0.42, 0.28, 0.30}) {
	case 0:
		// Watch almost to the end: give up in (0, 10%].
		v = clampInt(int(rng.Uniform(1, 11)), 1, 100)
	case 1:
		// Give up between 10% and 20%.
		v = clampInt(int(rng.Uniform(11, 21)), 1, 100)
	default:
		// Anxious minority quitting at or above 20%.
		v = clampInt(20+int(rng.Exponential(8)+0.5), 1, 100)
	}
	if v > charge {
		v = charge
	}
	return v
}

func corrupt(rng *stats.RNG, r *Respondent) {
	switch rng.Intn(3) {
	case 0:
		r.ChargeThreshold = 0 // unanswered
	case 1:
		r.ChargeThreshold = 100 + rng.Intn(50) // out of range
	default:
		r.GiveUpThreshold = r.ChargeThreshold + 1 + rng.Intn(30) // inconsistent
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
