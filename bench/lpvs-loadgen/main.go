// Command lpvs-loadgen is the repository's end-to-end slot benchmark.
// It boots the workload's daemons in-process on loopback listeners,
// drives slots the way a fleet gateway does (report, tick, read) while
// a second connection reads decisions at a fixed rate, checks the
// answers against a cold reference scheduler, and prints every metric
// by name. bench/README.md defines the load model and the metrics.
//
//	lpvs-loadgen -workload edge-10k-cold -seed 1 -seconds 20 -trace 0
//	lpvs-loadgen -workload all -json out.json
//	lpvs-loadgen compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		}
	}
	workload := flag.String("workload", "all", "workload name, or all (three blocks each, interleaved round-robin)")
	seed := flag.Int64("seed", 1, "seed of device specs, energies and churn selection")
	seconds := flag.Float64("seconds", 20, "timed slot time per workload")
	trace := flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass with the per-layer ledger")
	smoke := flag.Bool("smoke", false, "3 slots per workload after one set-up with one warm-up slot; the first slot is checked")
	jsonOut := flag.String("json", "", "also write the full results, with provenance, to this file")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for audit logs, snapshots and span files")
	flag.Parse()

	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, workdir: *workdir}
	specs := workloads
	if *workload != "all" {
		sp, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "lpvs-loadgen: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []spec{sp}
	}
	results, err := run(specs, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpvs-loadgen:", err)
		os.Exit(1)
	}
	ok := true
	for i := range results {
		results[i].print(os.Stdout)
		ok = ok && results[i].Correct
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(document{provenance: newProvenance(), Results: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpvs-loadgen:", err)
			os.Exit(1)
		}
	}
	if len(results) == 1 {
		printDriverLine(&results[0])
	}
	if !ok {
		os.Exit(1)
	}
}

// run sets every workload up, then measures them in three blocks each,
// interleaved round-robin (A B C D A B C D ...) with a GC between
// blocks, so slow drift of the machine spreads over all workloads.
func run(specs []spec, opt options) ([]result, error) {
	sessions := make([]*session, 0, len(specs))
	defer func() {
		for _, s := range sessions {
			s.close()
		}
	}()
	for _, sp := range specs {
		s, err := newSession(sp, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		sessions = append(sessions, s)
	}
	perBlock := time.Duration(opt.seconds / blocks * float64(time.Second))
	slotsPerBlock := 0
	if opt.smoke {
		slotsPerBlock = smokeSlotsPerBlock
	}
	for b := 1; b <= blocks; b++ {
		for _, s := range sessions {
			runtime.GC()
			s.runBlock(time.Duration(b)*perBlock, slotsPerBlock)
		}
	}
	results := make([]result, len(sessions))
	for i, s := range sessions {
		if opt.trace {
			s.finishTrace()
		}
		results[i] = s.finish()
		results[i].Interleaved = len(sessions) > 1
		if opt.trace {
			path := filepath.Join(opt.workdir, "spans-"+s.in.spec.name+".jsonl")
			if err := s.tr.writeJSONL(path); err != nil {
				return nil, err
			}
			results[i].SpansFile = path
		}
	}
	return results, nil
}

// printDriverLine prints the one-object summary the benchmark driver
// reads from the last line of standard output.
func printDriverLine(r *result) {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Println(string(line))
}
