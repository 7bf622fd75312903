package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy returns by what share of a the value b is worse than a, given
// the metric's better-direction; negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCompare is the compare subcommand. It returns 0 when b is within
// every bound of a, 1 when it is not, 2 when the files cannot be
// compared.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: lpvs-loadgen compare [-bench BENCHMARK.json] a.json b.json")
		return 2
	}
	var bench benchmarkFile
	var a, b document
	err := readJSON(*benchPath, &bench)
	if err == nil {
		err = readJSON(fs.Arg(0), &a)
	}
	if err == nil {
		err = readJSON(fs.Arg(1), &b)
	}
	var within bool
	if err == nil {
		within, err = compare(os.Stdout, bench, a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpvs-loadgen compare:", err)
		return 2
	}
	if !within {
		return 1
	}
	return 0
}

// compare prints, per workload of a and end-to-end metric of
// BENCHMARK.json, both runs' values, by how much b is worse and the
// bound; the demoted e2e.* metrics follow without a bound. It reports
// whether b is within every bound and neither run had a failed
// operation. Runs that do not measure the same thing are an
// error: a workload or metric one file lacks, traced results, another
// seed or run length, or an interleaved --workload all run (whose CPU,
// allocation and memory metrics are process-wide) against a run of one
// workload.
func compare(w io.Writer, bench benchmarkFile, a, b document) (within bool, err error) {
	if len(bench.EndToEnd) == 0 || len(a.Results) == 0 {
		return false, fmt.Errorf("nothing to compare: %d end-to-end metrics, %d results in a", len(bench.EndToEnd), len(a.Results))
	}
	if len(a.Results) != len(b.Results) {
		return false, fmt.Errorf("a has %d results, b %d", len(a.Results), len(b.Results))
	}
	bResults := map[string]result{}
	for _, r := range b.Results {
		bResults[r.Workload] = r
	}
	within = true
	fmt.Fprintf(w, "%-26s %-22s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, ra := range a.Results {
		rb, ok := bResults[ra.Workload]
		switch {
		case !ok:
			return false, fmt.Errorf("%s: in a, not in b", ra.Workload)
		case ra.Traced || rb.Traced:
			return false, fmt.Errorf("%s: a traced pass has no end-to-end metrics", ra.Workload)
		case ra.Seed != rb.Seed || ra.RunSeconds != rb.RunSeconds:
			return false, fmt.Errorf("%s: a ran seed %d for %g s, b seed %d for %g s",
				ra.Workload, ra.Seed, ra.RunSeconds, rb.Seed, rb.RunSeconds)
		case ra.Interleaved != rb.Interleaved:
			return false, fmt.Errorf("%s: one run interleaved all workloads in one process, the other did not", ra.Workload)
		}
		for _, m := range bench.EndToEnd {
			ma, okA := ra.EndToEnd[m.Name]
			mb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB || ma.Value <= 0 {
				return false, fmt.Errorf("%s: no %s to compare (in a: %t, in b: %t, a's value %g)",
					ra.Workload, m.Name, okA, okB, ma.Value)
			}
			worse := worseBy(ma.Value, mb.Value, m.Better)
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE BOUND"
				within = false
			}
			fmt.Fprintf(w, "%-26s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				ra.Workload, m.Name, ma.Value, mb.Value, 100*worse, 100*m.Bound, verdict)
		}
		for _, m := range bench.PerLayer {
			ma, okA := ra.Demoted[m.Name]
			mb, okB := rb.Demoted[m.Name]
			if okA && okB && ma.Value > 0 {
				fmt.Fprintf(w, "%-26s %-22s %14.6g %14.6g %+8.1f%% %7s\n",
					ra.Workload, m.Name, ma.Value, mb.Value, 100*worseBy(ma.Value, mb.Value, m.Better), "none")
			}
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-26s failed operations: a=%d b=%d  OUTSIDE BOUND (must be 0)\n", ra.Workload, ra.Failed, rb.Failed)
			within = false
		}
	}
	return within, nil
}
