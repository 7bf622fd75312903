package main

// The audit commands inspect LPVS decision audit logs (the JSONL stream
// written by `lpvsd -audit-dir` or `lpvs-emu -audit-dir`; see
// internal/obs/audit):
//
//	audit replay    re-run every record and byte-compare the decisions
//	audit explain   print one device's verdict
//	audit recover   rebuild a durable-state snapshot from the log
//
// replay fails on any divergence, so `make cli-smoke` gates CI on the
// scheduler's determinism contract: a logged decision must be
// reproducible bit for bit from its own record.
//
// recover is the offline arm of the DESIGN.md §14 recovery ladder: it
// folds the log a record at a time into an approximate snapshot —
// last-known gamma per device as a concentrated posterior — that lpvsd
// can warm-boot from, replaying each record for integrity as it goes
// (skip with -no-verify) and writing nothing if one diverges.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lpvs/internal/obs/audit"
	"lpvs/internal/persist"
)

// logPath resolves the one audit log a command names: the JSONL file
// itself or the audit directory containing it.
func logPath(cmd string, fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s: want exactly one audit log path, got %d", cmd, fs.NArg())
	}
	path := fs.Arg(0)
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if info.IsDir() {
		path = filepath.Join(path, audit.FileName)
	}
	return path, nil
}

// readLog reads the log logPath names, whole. An empty log is an error.
func readLog(cmd string, fs *flag.FlagSet) (path string, recs []*audit.Record, err error) {
	if path, err = logPath(cmd, fs); err != nil {
		return "", nil, err
	}
	if recs, err = audit.ReadFile(path); err == nil && len(recs) == 0 {
		err = fmt.Errorf("%s: %s holds no records", cmd, path)
	}
	return path, recs, err
}

func auditReplay(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("audit replay", stderr)
	verbose := fs.Bool("v", false, "print every record's outcome")
	if err := parse(fs, args); err != nil {
		return err
	}
	path, recs, err := readLog("replay", fs)
	if err != nil {
		return err
	}
	diverged, err := audit.ReplayAll(recs, func(i int, res *audit.ReplayResult) error {
		rec := recs[i]
		if !res.Match {
			fmt.Fprintf(stdout, "record %d (slot %d, vc %s): DIVERGED\n%s", i, rec.Slot, rec.VC, res.Diff())
		} else if *verbose {
			fmt.Fprintf(stdout, "record %d (slot %d, vc %s): ok, %s\n", i, rec.Slot, rec.VC, rec.Layout())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if diverged > 0 {
		return fmt.Errorf("replay: %d of %d records diverged", diverged, len(recs))
	}
	fmt.Fprintf(stdout, "replayed %d records from %s: all byte-identical\n", len(recs), path)
	return nil
}

func auditRecover(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("audit recover", stderr)
	out := fs.String("out", "", "write the recovered snapshot here (required)")
	noVerify := fs.Bool("no-verify", false, "skip replaying every record before recovering")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("recover: -out is required")
	}
	path, err := logPath("recover", fs)
	if err != nil {
		return err
	}
	// The log is folded a record at a time, each one replayed as it is
	// read: nothing here holds more than one record.
	records := 0
	snap, err := persist.RecoverFromAudit(path, func(rec *audit.Record) error {
		i := records
		records++
		if *noVerify {
			return nil
		}
		res, err := rec.Replay()
		if err != nil {
			return fmt.Errorf("record %d (slot %d, vc %s): %w", i, rec.Slot, rec.VC, err)
		}
		if !res.Match {
			return fmt.Errorf("record %d (slot %d, vc %s) diverged on replay; refusing to recover from a tampered log\n%s",
				i, rec.Slot, rec.VC, res.Diff())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := snap.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recovered %d devices at slot %d from %d records into %s\n",
		len(snap.Devices), snap.Slot, records, *out)
	return nil
}

func auditExplain(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("audit explain", stderr)
	device := fs.String("device", "", "device ID to explain (required)")
	slot := fs.Int("slot", -1, "explain this slot (-1 = the device's last record)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *device == "" {
		return fmt.Errorf("explain: -device is required")
	}
	path, recs, err := readLog("explain", fs)
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
		fmt.Fprintf(stdout, "device:          %s\n", *device)
		fmt.Fprintf(stdout, "slot:            %d (vc %s)\n", rec.Slot, rec.VC)
		fmt.Fprintf(stdout, "selected:        %t\n", v.Selected)
		fmt.Fprintf(stdout, "eligible:        %t\n", v.Eligible)
		fmt.Fprintf(stdout, "reason:          %s\n", v.Reason)
		fmt.Fprintf(stdout, "                 %s\n", v.Reason.Detail())
		fmt.Fprintf(stdout, "anxiety:         %.4f -> %.4f (predicted end of slot)\n", v.AnxietyBefore, v.AnxietyAfter)
		fmt.Fprintf(stdout, "gamma estimate:  %.4f\n", v.Gamma)
		fmt.Fprintf(stdout, "saving:          %.6f battery fraction this slot\n", v.SavingFrac)
		if rec.TraceID != "" {
			fmt.Fprintf(stdout, "trace:           %s\n", rec.TraceID)
		}
		return nil
	}
	if *slot >= 0 {
		return fmt.Errorf("explain: device %q not found in slot %d of %s", *device, *slot, path)
	}
	return fmt.Errorf("explain: device %q not found in %s", *device, path)
}
