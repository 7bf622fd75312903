package main

// The flight commands inspect flight-recorder incident bundles (the
// versioned .flight files written by `lpvsd -flight-dir`; see
// internal/obs/flight and DESIGN.md §15):
//
//	flight list   one line per bundle
//	flight show   dump one bundle: trigger, SLO states, metric history,
//	              span trees, audit tail
//	flight diff   compare two bundles
//
// show defaults to the newest bundle when given a directory. With
// -replay (the default) every embedded audit record is re-run through
// the deterministic scheduler and byte-compared against its logged
// decision; any divergence fails the command, so a bundle proves not
// just what the daemon decided but that the decision is reproducible.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lpvs/internal/obs/audit"
	"lpvs/internal/obs/flight"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/slo"
	"lpvs/internal/obs/span"
)

// bundlePath accepts either a .flight file or the incident directory;
// a directory resolves to its newest bundle (name order is capture
// order).
func bundlePath(arg string) (string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return "", err
	}
	if !info.IsDir() {
		return arg, nil
	}
	paths, err := flight.ListBundles(arg)
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("%s holds no %s bundles", arg, flight.BundleExt)
	}
	return paths[len(paths)-1], nil
}

func flightList(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("flight list", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("list: want exactly one incident directory, got %d", fs.NArg())
	}
	paths, err := flight.ListBundles(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("list: %s holds no %s bundles", fs.Arg(0), flight.BundleExt)
	}
	fmt.Fprintf(stdout, "%-28s %-10s %-9s %7s %6s %6s  %s\n",
		"WRITTEN", "TRIGGER", "BINARY", "HISTORY", "SPANS", "AUDIT", "FILE")
	for _, p := range paths {
		b, err := flight.LoadBundle(p)
		if err != nil {
			fmt.Fprintf(stdout, "%-28s %-10s %-9s %7s %6s %6s  %s\n",
				"-", "corrupt", "-", "-", "-", "-", filepath.Base(p))
			fmt.Fprintf(stderr, "lpvsctl: %s: %v\n", filepath.Base(p), err)
			continue
		}
		fmt.Fprintf(stdout, "%-28s %-10s %-9s %7d %6d %6d  %s\n",
			fmtUnix(b.WrittenUnixSec), b.Trigger, b.Binary,
			len(b.History), len(b.Spans), len(b.AuditRecords), filepath.Base(p))
	}
	return nil
}

func flightShow(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("flight show", stderr)
	replay := fs.Bool("replay", true, "replay embedded audit records and byte-compare decisions")
	verbose := fs.Bool("v", false, "also print profiles' sizes and every history point")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: want exactly one bundle path or incident directory, got %d", fs.NArg())
	}
	path, err := bundlePath(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := flight.LoadBundle(path)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "bundle:       %s\n", path)
	fmt.Fprintf(stdout, "written:      %s\n", fmtUnix(b.WrittenUnixSec))
	fmt.Fprintf(stdout, "trigger:      %s\n", b.Trigger)
	if b.Reason != "" {
		fmt.Fprintf(stdout, "reason:       %s\n", b.Reason)
	}
	fmt.Fprintf(stdout, "binary:       %s %s (%s)\n", b.Binary, b.Version, b.GoVersion)
	if b.ConfigHash != "" {
		fmt.Fprintf(stdout, "config hash:  %s\n", b.ConfigHash)
	}
	if len(b.Meta) > 0 {
		keys := make([]string, 0, len(b.Meta))
		for k := range b.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "meta:         %s=%s\n", k, b.Meta[k])
		}
	}

	if len(b.SLO) > 0 {
		fmt.Fprintf(stdout, "\nslo states (%d):\n", len(b.SLO))
		for _, st := range b.SLO {
			mark := "ok"
			if st.Alarming {
				mark = "ALARM"
			}
			fmt.Fprintf(stdout, "  %-24s %-6s bad %.0f/%.0f  budget left %.0f%%",
				st.Name, mark, st.BadEvents, st.TotalEvents, st.BudgetRemaining*100)
			for _, w := range st.Windows {
				fmt.Fprintf(stdout, "  %s burn %.2f", w.Name, w.BurnRate)
			}
			fmt.Fprintln(stdout)
		}
	}

	if len(b.History) > 0 {
		fmt.Fprintf(stdout, "\nmetric history (%d series):\n", len(b.History))
		for _, s := range b.History {
			printSeries(stdout, s, *verbose)
		}
	}

	if len(b.Spans) > 0 {
		fmt.Fprintf(stdout, "\nspans (%d captured, %d dropped):\n", len(b.Spans), b.SpansDropped)
		printTraces(stdout, b.Spans)
	}

	if len(b.AuditRecords) > 0 {
		fmt.Fprintf(stdout, "\naudit tail (%d records):\n", len(b.AuditRecords))
		if err := showAudit(stdout, b, *replay); err != nil {
			return err
		}
	} else if *replay {
		fmt.Fprintf(stdout, "\naudit tail: empty (nothing to replay)\n")
	}

	if *verbose {
		fmt.Fprintf(stdout, "\nprofiles: goroutine %d bytes, heap %d bytes\n",
			len(b.GoroutineProfile), len(b.HeapProfile))
	}
	return nil
}

// showAudit prints and optionally replays the bundle's audit tail.
// Each record is replayed the way `audit replay` does it:
// decode the byte-exact line, re-run the scheduler, compare.
func showAudit(w io.Writer, b *flight.Bundle, replay bool) error {
	recs := make([]*audit.Record, len(b.AuditRecords))
	for i, raw := range b.AuditRecords {
		rec, err := audit.Decode(append([]byte(nil), raw...))
		if err != nil {
			return fmt.Errorf("audit record %d: %w", i, err)
		}
		recs[i] = rec
	}
	line := func(i int) string {
		return fmt.Sprintf("  record %d: slot %d, vc %s, %s", i, recs[i].Slot, recs[i].VC, recs[i].Layout())
	}
	if !replay {
		for i := range recs {
			fmt.Fprintln(w, line(i))
		}
		return nil
	}
	diverged, err := audit.ReplayAll(recs, func(i int, res *audit.ReplayResult) error {
		if res.Match {
			fmt.Fprintf(w, "%s: replay ok (byte-identical)\n", line(i))
		} else {
			fmt.Fprintf(w, "%s: REPLAY DIVERGED\n%s", line(i), res.Diff())
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("audit %w", err)
	}
	if diverged > 0 {
		return fmt.Errorf("show: %d of %d audit records diverged on replay", diverged, len(recs))
	}
	return nil
}

// printSeries renders one history series with a unicode sparkline and
// last value; -v also dumps every point.
func printSeries(w io.Writer, s history.Series, verbose bool) {
	last := math.NaN()
	if n := len(s.Points); n > 0 {
		last = s.Points[n-1].Value
	}
	fmt.Fprintf(w, "  %-44s %-5s %3d pts  %s  last %.4g\n",
		s.Key(), s.Kind, len(s.Points), sparkline(s.Points), last)
	if verbose {
		for _, p := range s.Points {
			fmt.Fprintf(w, "      %s  %.6g\n", fmtUnix(float64(p.UnixMS)/1e3), p.Value)
		}
	}
}

// printTraces groups the span ring by trace and renders each trace as
// an indented tree, newest trace last.
func printTraces(w io.Writer, spans []span.Data) {
	seen := make(map[string]bool)
	var order []string
	for _, d := range spans {
		if !seen[d.TraceID] {
			seen[d.TraceID] = true
			order = append(order, d.TraceID)
		}
	}
	for _, tid := range order {
		fmt.Fprintf(w, "  trace %s:\n", tid)
		for _, root := range span.Tree(spans, tid) {
			printNode(w, root, 2)
		}
	}
}

func printNode(w io.Writer, n *span.Node, depth int) {
	fmt.Fprintf(w, "  %s%s (%.3fms", strings.Repeat("  ", depth), n.Name, n.DurationSec*1e3)
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, ", %s=%g", k, n.Attrs[k])
	}
	fmt.Fprintln(w, ")")
	for _, c := range n.Children {
		printNode(w, c, depth+1)
	}
}

func flightDiff(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("flight diff", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two bundle paths, got %d", fs.NArg())
	}
	a, err := flight.LoadBundle(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("diff: %s: %w", fs.Arg(0), err)
	}
	b, err := flight.LoadBundle(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("diff: %s: %w", fs.Arg(1), err)
	}

	diffs := 0
	line := func(field, av, bv string) {
		if av != bv {
			diffs++
			fmt.Fprintf(stdout, "  %-14s %s -> %s\n", field+":", orDash(av), orDash(bv))
		}
	}
	fmt.Fprintf(stdout, "diff %s .. %s (%.1fs apart)\n",
		filepath.Base(fs.Arg(0)), filepath.Base(fs.Arg(1)),
		b.WrittenUnixSec-a.WrittenUnixSec)
	line("trigger", a.Trigger, b.Trigger)
	line("reason", a.Reason, b.Reason)
	line("binary", a.Binary, b.Binary)
	line("version", a.Version, b.Version)
	line("go version", a.GoVersion, b.GoVersion)
	line("config hash", a.ConfigHash, b.ConfigHash)
	for _, k := range unionKeys(a.Meta, b.Meta) {
		line("meta "+k, a.Meta[k], b.Meta[k])
	}

	// SLO states by objective name: alarming flips are the usual story
	// ("the tick-latency alarm was firing in A and clear in B").
	aSLO, bSLO := sloByName(a.SLO), sloByName(b.SLO)
	for _, name := range unionKeys(aSLO, bSLO) {
		as, aok := aSLO[name]
		bs, bok := bSLO[name]
		switch {
		case !aok:
			diffs++
			fmt.Fprintf(stdout, "  slo %s: only in %s\n", name, filepath.Base(fs.Arg(1)))
		case !bok:
			diffs++
			fmt.Fprintf(stdout, "  slo %s: only in %s\n", name, filepath.Base(fs.Arg(0)))
		case as.Alarming != bs.Alarming:
			diffs++
			fmt.Fprintf(stdout, "  slo %s: alarming %t -> %t (budget left %.0f%% -> %.0f%%)\n",
				name, as.Alarming, bs.Alarming, as.BudgetRemaining*100, bs.BudgetRemaining*100)
		}
	}

	// History series by key: report appearing/disappearing series and
	// last-value movement on shared ones.
	aHist, bHist := histByKey(a.History), histByKey(b.History)
	for _, key := range unionKeys(aHist, bHist) {
		as, aok := aHist[key]
		bs, bok := bHist[key]
		switch {
		case !aok:
			diffs++
			fmt.Fprintf(stdout, "  series %s: only in %s\n", key, filepath.Base(fs.Arg(1)))
		case !bok:
			diffs++
			fmt.Fprintf(stdout, "  series %s: only in %s\n", key, filepath.Base(fs.Arg(0)))
		default:
			av, bv := lastValue(as), lastValue(bs)
			if av != bv {
				diffs++
				fmt.Fprintf(stdout, "  series %s: last %.6g -> %.6g\n", key, av, bv)
			}
		}
	}

	if na, nb := len(a.Spans), len(b.Spans); na != nb {
		diffs++
		fmt.Fprintf(stdout, "  spans:         %d -> %d\n", na, nb)
	}
	if na, nb := len(a.AuditRecords), len(b.AuditRecords); na != nb {
		diffs++
		fmt.Fprintf(stdout, "  audit records: %d -> %d\n", na, nb)
	}
	if diffs == 0 {
		fmt.Fprintln(stdout, "  bundles agree on every compared field")
	}
	return nil
}

func sloByName(states []slo.State) map[string]slo.State {
	m := make(map[string]slo.State, len(states))
	for _, st := range states {
		m[st.Name] = st
	}
	return m
}

func histByKey(series []history.Series) map[string]history.Series {
	m := make(map[string]history.Series, len(series))
	for _, s := range series {
		m[s.Key()] = s
	}
	return m
}

func lastValue(s history.Series) float64 {
	if n := len(s.Points); n > 0 {
		return s.Points[n-1].Value
	}
	return math.NaN()
}

// unionKeys returns the sorted union of both maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	set := make(map[string]bool, len(a)+len(b))
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fmtUnix(sec float64) string {
	return time.Unix(0, int64(sec*1e9)).UTC().Format("2006-01-02T15:04:05.000Z")
}
