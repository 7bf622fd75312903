// Command lpvs-audit inspects LPVS decision audit logs (the JSONL
// stream written by `lpvsd -audit-dir` or `lpvs-emu -audit-dir`; see
// internal/obs/audit).
//
// Usage:
//
//	lpvs-audit replay <audit.jsonl | dir>    re-run every record and
//	                                         byte-compare the decisions
//	lpvs-audit explain -device ID [-slot N] <audit.jsonl | dir>
//	                                         print a device's verdict
//	lpvs-audit recover -out snapshot.lpvs <audit.jsonl | dir>
//	                                         rebuild a durable-state
//	                                         snapshot from the log
//
// replay exits non-zero on any divergence, so `make audit-replay` can
// gate CI on the scheduler's determinism contract: a logged decision
// must be reproducible bit for bit from its own record.
//
// recover is the offline arm of the DESIGN.md §14 recovery ladder: it
// replays every record for integrity (skip with -no-verify), then
// synthesizes an approximate snapshot — last-known gamma per device as
// a concentrated posterior — that lpvsd can warm-boot from.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lpvs/internal/obs/audit"
	"lpvs/internal/persist"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "replay":
		err = runReplay(os.Args[2:])
	case "explain":
		err = runExplain(os.Args[2:])
	case "recover":
		err = runRecover(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lpvs-audit: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpvs-audit:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lpvs-audit replay [-v] <audit.jsonl | dir>
  lpvs-audit explain -device ID [-slot N] <audit.jsonl | dir>
  lpvs-audit recover -out snapshot.lpvs [-no-verify] <audit.jsonl | dir>`)
}

// logPath accepts either the JSONL file itself or the audit directory
// containing it.
func logPath(arg string) (string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return "", err
	}
	if info.IsDir() {
		return filepath.Join(arg, audit.FileName), nil
	}
	return arg, nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print every record's outcome")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: want exactly one audit log path, got %d", fs.NArg())
	}
	path, err := logPath(fs.Arg(0))
	if err != nil {
		return err
	}
	recs, err := audit.ReadFile(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("replay: %s holds no records", path)
	}
	diverged, err := audit.ReplayAll(recs, func(i int, res *audit.ReplayResult) error {
		rec := recs[i]
		if !res.Match {
			fmt.Printf("record %d (slot %d, vc %s): DIVERGED\n%s", i, rec.Slot, rec.VC, res.Diff())
		} else if *verbose {
			fmt.Printf("record %d (slot %d, vc %s): ok, %s\n", i, rec.Slot, rec.VC, rec.Layout())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if diverged > 0 {
		return fmt.Errorf("replay: %d of %d records diverged", diverged, len(recs))
	}
	fmt.Printf("replayed %d records from %s: all byte-identical\n", len(recs), path)
	return nil
}

func runRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	out := fs.String("out", "", "write the recovered snapshot here (required)")
	noVerify := fs.Bool("no-verify", false, "skip replaying every record before recovering")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("recover: -out is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("recover: want exactly one audit log path, got %d", fs.NArg())
	}
	path, err := logPath(fs.Arg(0))
	if err != nil {
		return err
	}
	recs, err := audit.ReadFile(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("recover: %s holds no records", path)
	}
	if !*noVerify {
		_, err := audit.ReplayAll(recs, func(i int, res *audit.ReplayResult) error {
			if !res.Match {
				return fmt.Errorf("record %d (slot %d, vc %s) diverged on replay; refusing to recover from a tampered log\n%s",
					i, recs[i].Slot, recs[i].VC, res.Diff())
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	snap, err := persist.RecoverFromAudit(recs)
	if err != nil {
		return err
	}
	if err := snap.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("recovered %d devices at slot %d from %d records into %s\n",
		len(snap.Devices), snap.Slot, len(recs), *out)
	return nil
}

func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	device := fs.String("device", "", "device ID to explain (required)")
	slot := fs.Int("slot", -1, "explain this slot (-1 = the device's last record)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *device == "" {
		return fmt.Errorf("explain: -device is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: want exactly one audit log path, got %d", fs.NArg())
	}
	path, err := logPath(fs.Arg(0))
	if err != nil {
		return err
	}
	recs, err := audit.ReadFile(path)
	if err != nil {
		return err
	}
	// Scan newest-first so the default (-slot -1) is the device's most
	// recent verdict.
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		if *slot >= 0 && rec.Slot != *slot {
			continue
		}
		v, ok := rec.Verdict(*device)
		if !ok {
			continue
		}
		fmt.Printf("device:          %s\n", *device)
		fmt.Printf("slot:            %d (vc %s)\n", rec.Slot, rec.VC)
		fmt.Printf("selected:        %t\n", v.Selected)
		fmt.Printf("eligible:        %t\n", v.Eligible)
		fmt.Printf("reason:          %s\n", v.Reason)
		fmt.Printf("                 %s\n", v.Reason.Detail())
		fmt.Printf("anxiety:         %.4f -> %.4f (predicted end of slot)\n", v.AnxietyBefore, v.AnxietyAfter)
		fmt.Printf("gamma estimate:  %.4f\n", v.Gamma)
		fmt.Printf("saving:          %.6f battery fraction this slot\n", v.SavingFrac)
		if rec.TraceID != "" {
			fmt.Printf("trace:           %s\n", rec.TraceID)
		}
		return nil
	}
	if *slot >= 0 {
		return fmt.Errorf("explain: device %q not found in slot %d of %s", *device, *slot, path)
	}
	return fmt.Errorf("explain: device %q not found in %s", *device, path)
}
