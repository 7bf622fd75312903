package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/emu"
	"lpvs/internal/video"
)

// writeSession runs a short emulator session with the audit log on and
// returns the log's directory.
func writeSession(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	e, err := emu.New(emu.Config{
		Seed:          21,
		GroupSize:     8,
		Slots:         4,
		Lambda:        1,
		ServerStreams: 3,
		Genre:         video.Gaming,
		AuditDir:      dir,
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestRunDispatch drives the two-level dispatcher through main's own
// entry point: exit status, where the usage text goes, and the error
// prefix of a failing command.
func TestRunDispatch(t *testing.T) {
	auditDir := writeSession(t)
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		stdout     string // substring, "" = must be empty
		stderr     string // substring
		wantUsage  bool
		wantPrefix bool // stderr starts "lpvsctl: "
	}{
		{name: "help", args: []string{"help"}, code: 0, wantUsage: true},
		{name: "-h", args: []string{"-h"}, code: 0, wantUsage: true},
		{name: "group help", args: []string{"audit", "help"}, code: 0, wantUsage: true},
		{name: "no command", code: 2, wantUsage: true},
		{name: "unknown group", args: []string{"bogus"}, code: 2,
			stderr: `unknown command "bogus"`, wantUsage: true, wantPrefix: true},
		{name: "missing subcommand", args: []string{"flight"}, code: 2,
			stderr: `unknown command "flight"`, wantUsage: true, wantPrefix: true},
		{name: "unknown subcommand", args: []string{"audit", "bogus"}, code: 2,
			stderr: `unknown command "audit bogus"`, wantUsage: true, wantPrefix: true},
		{name: "undefined flag", args: []string{"audit", "replay", "-bogus", auditDir}, code: 2,
			stderr: "flag provided but not defined: -bogus"},
		{name: "command -h", args: []string{"top", "-h"}, code: 0, stderr: "-once"},
		{name: "failing command", args: []string{"audit", "replay", missing}, code: 1,
			stderr: "no such file or directory", wantPrefix: true},
		{name: "succeeding command", args: []string{"audit", "replay", auditDir}, code: 0,
			stdout: "all byte-identical"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.stdout == "" && stdout.Len() > 0 || !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q, want %q", stdout.String(), tc.stdout)
			}
			errText := stderr.String()
			if !strings.Contains(errText, tc.stderr) {
				t.Errorf("stderr %q, want it to contain %q", errText, tc.stderr)
			}
			if got := strings.Contains(errText, "usage:\n  lpvsctl audit replay"); got != tc.wantUsage {
				t.Errorf("usage printed = %t, want %t:\n%s", got, tc.wantUsage, errText)
			}
			if got := strings.HasPrefix(errText, "lpvsctl: "); got != tc.wantPrefix {
				t.Errorf("stderr starts with the lpvsctl: prefix = %t, want %t:\n%s", got, tc.wantPrefix, errText)
			}
		})
	}
}
