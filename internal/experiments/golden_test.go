package experiments

import (
	"flag"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lpvs/internal/testenv"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// g formats a reported value at full precision, so a golden pins every
// bit of it rather than the two decimals Render prints.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares got with testdata/<name>.golden. A change meant
// to keep decisions — to how Phase-1 is searched, say — must not move
// one reported number; -update is for a change meant to move them.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	testenv.Golden(t, filepath.Join("testdata", name+".golden"), got, *update)
}

// The goldens run the default config, the one `lpvs-bench -exp figN`
// prints and EXPERIMENTS.md quotes.

func TestFig7Golden(t *testing.T) {
	r, err := Fig7(DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "group=%d saving=%s anxiety=%s\n", row.GroupSize, g(row.EnergySaving), g(row.AnxietyReduction))
	}
	fmt.Fprintf(&b, "avg_saving=%s max_saving=%s\n", g(r.AvgSaving), g(r.MaxSaving))
	fmt.Fprintf(&b, "avg_anxiety=%s max_anxiety=%s\n", g(r.AvgAnxiety), g(r.MaxAnxiety))
	checkGolden(t, "fig7", b.String())
}

func TestFig8Golden(t *testing.T) {
	r, err := Fig8(DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "lambda=%s group=%d saving=%s anxiety=%s\n", g(c.Lambda), c.GroupSize, g(c.EnergySaving), g(c.AnxietyReduction))
	}
	checkGolden(t, "fig8", b.String())
}

func TestFig9Golden(t *testing.T) {
	r, err := Fig9(DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("cohort=%d baseline_min=%s treated_min=%s gain=%s\n", r.CohortSize, g(r.BaselineMin), g(r.TreatedMin), g(r.Gain))
	checkGolden(t, "fig9", got)
}
