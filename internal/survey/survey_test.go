package survey

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(DefaultConfig())
}

func TestGenerateCount(t *testing.T) {
	ds := defaultDataset(t)
	if ds.N() != 2032 {
		t.Fatalf("N = %d, want 2032", ds.N())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if a.N() != b.N() {
		t.Fatal("sizes differ")
	}
	for i := range a.Respondents {
		if a.Respondents[i] != b.Respondents[i] {
			t.Fatalf("respondent %d differs across equal-seed runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 2
	a, b := Generate(DefaultConfig()), Generate(cfg)
	same := 0
	for i := range a.Respondents {
		if a.Respondents[i].ChargeThreshold == b.Respondents[i].ChargeThreshold {
			same++
		}
	}
	if same == a.N() {
		t.Fatal("different seeds produced identical answers")
	}
}

func TestCleansingDiscardsInvalid(t *testing.T) {
	ds := defaultDataset(t)
	if ds.Discarded == 0 {
		t.Fatal("expected some raw sheets to be discarded during cleansing")
	}
	for _, r := range ds.Respondents {
		if !r.Valid() {
			t.Fatalf("invalid respondent survived cleansing: %+v", r)
		}
	}
}

func TestLBARateMatchesPaper(t *testing.T) {
	ds := defaultDataset(t)
	if rate := ds.LBARate(); math.Abs(rate-0.9188) > 0.02 {
		t.Fatalf("LBA rate = %v, want about 0.9188", rate)
	}
}

func TestGiveUpRatesMatchPaper(t *testing.T) {
	ds := defaultDataset(t)
	// Paper: over 20% drop at battery level 20, about 50% at level 10,
	// nearly half give up below 10%.
	at20 := ds.GiveUpRateAt(20)
	if at20 < 0.20 || at20 > 0.40 {
		t.Fatalf("give-up rate at 20%% = %v, want in [0.20, 0.40]", at20)
	}
	at10 := ds.GiveUpRateAt(10)
	if at10 < 0.40 || at10 > 0.65 {
		t.Fatalf("give-up rate at 10%% = %v, want in [0.40, 0.65]", at10)
	}
	if at10 <= at20-1e-12 {
		t.Fatal("give-up rate must be non-decreasing as the level drops")
	}
}

func TestSufferersChargeEarlier(t *testing.T) {
	ds := defaultDataset(t)
	var sum, n [2]float64 // index 1: sufferers
	for _, r := range ds.Respondents {
		k := 0
		if r.SuffersLBA {
			k = 1
		}
		sum[k] += float64(r.ChargeThreshold)
		n[k]++
	}
	anxious, calm := sum[1]/n[1], sum[0]/n[0]
	if anxious <= calm {
		t.Fatalf("sufferers (%v) should charge earlier than non-sufferers (%v)", anxious, calm)
	}
}

func TestChargeThresholdShape(t *testing.T) {
	ds := defaultDataset(t)
	counts := make([]int, 101)
	for _, a := range ds.ChargeThresholds() {
		counts[a]++
	}
	// The 20% warning level must be the modal answer.
	mode := 1
	for v := 1; v <= 100; v++ {
		if counts[v] > counts[mode] {
			mode = v
		}
	}
	if mode < 18 || mode > 22 {
		t.Fatalf("modal charge threshold = %d, want near 20", mode)
	}
	// Density above the warning level decreases (coarse check on decade
	// aggregates), giving the convex survival of Fig. 2.
	dec := func(lo, hi int) int {
		s := 0
		for v := lo; v <= hi; v++ {
			s += counts[v]
		}
		return s
	}
	if !(dec(21, 40) > dec(41, 60) && dec(41, 60) > dec(61, 80) && dec(61, 80) > dec(81, 100)) {
		t.Fatalf("charge-threshold tail not decreasing: %d %d %d %d",
			dec(21, 40), dec(41, 60), dec(61, 80), dec(81, 100))
	}
}

func TestDemographicsMatchTable2(t *testing.T) {
	ds := defaultDataset(t)
	dem := ds.Demographics()
	if dem.N != ds.N() {
		t.Fatalf("demographics N = %d, want %d", dem.N, ds.N())
	}
	frac := func(n int) float64 { return float64(n) / float64(dem.N) }
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"male", frac(dem.Gender[Male]), 0.5389},
		{"student", frac(dem.Occupation[Student]), 0.5039},
		{"age 18-25", frac(dem.Age[Age18to25]), 0.5145},
		{"iphone", frac(dem.Brand[IPhone]), 0.3627},
		{"huawei", frac(dem.Brand[Huawei]), 0.3356},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 0.04 {
			t.Errorf("%s fraction = %v, want about %v", c.name, c.got, c.want)
		}
	}
	sumG := dem.Gender[Male] + dem.Gender[Female]
	if sumG != dem.N {
		t.Fatalf("gender counts sum to %d, want %d", sumG, dem.N)
	}
}

func TestDemographicsRender(t *testing.T) {
	out := defaultDataset(t).Demographics().Render()
	for _, want := range []string{"Gender", "Age", "Occupation", "Smartphone Brand", "N = 2032"} {
		if !contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestRespondentValid(t *testing.T) {
	cases := []struct {
		r    Respondent
		want bool
	}{
		{Respondent{ChargeThreshold: 20, GiveUpThreshold: 10}, true},
		{Respondent{ChargeThreshold: 0, GiveUpThreshold: 10}, false},
		{Respondent{ChargeThreshold: 120, GiveUpThreshold: 10}, false},
		{Respondent{ChargeThreshold: 20, GiveUpThreshold: 0}, false},
		{Respondent{ChargeThreshold: 20, GiveUpThreshold: 30}, false},
		{Respondent{ChargeThreshold: 1, GiveUpThreshold: 1}, true},
	}
	for _, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestGeneratePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for N = 0")
		}
	}()
	Generate(Config{N: 0, Seed: 1})
}

func TestGenerateAnyValidConfigProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.N = int(n%500) + 1
		ds := Generate(cfg)
		if ds.N() != cfg.N {
			return false
		}
		for _, r := range ds.Respondents {
			if !r.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if Male.String() != "Male" || Female.String() != "Female" {
		t.Fatal("gender stringer")
	}
	if Age18to25.String() != "18~25" || AgeGroup(9).String() == "" {
		t.Fatal("age stringer")
	}
	if Student.String() != "Student" || Occupation(9).String() == "" {
		t.Fatal("occupation stringer")
	}
	if IPhone.String() != "iPhone" || Brand(9).String() == "" {
		t.Fatal("brand stringer")
	}
}
