package testenv

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Golden compares got with the file at path or, when update is set (a
// package's -update flag), writes got there instead.
func Golden(tb testing.TB, path, got string, update bool) {
	tb.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			tb.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		tb.Fatalf("%s moved:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TypeLines returns the "# TYPE" lines of a Prometheus text scrape,
// sorted, one per line: the metric families it exposes.
func TypeLines(scrape string) string {
	var lines []string
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
