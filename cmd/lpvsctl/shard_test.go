package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lpvs/internal/shard"
)

// writeShardMap writes a two-node shard map spec and returns its path.
func writeShardMap(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "map.json")
	spec := `{"replicas":128,"nodes":[{"id":"a","addr":"http://127.0.0.1:18151"},{"id":"b","addr":"http://127.0.0.1:18152"}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var (
	nodeRow  = regexp.MustCompile(`(?m)^  (\S+)\s+\S+\s+(\d+) keys \(`)
	movedRow = regexp.MustCompile(`moved (\d+)/(\d+) keys`)
)

// TestPlanChannelCounts: with -channels, the per-node rows account for
// every channel exactly once and agree with the map's own ownership,
// and every channel gets an owner line.
func TestPlanChannelCounts(t *testing.T) {
	path := writeShardMap(t)
	channels := []string{"live", "music", "news", "gaming", "sports", "irl", "esports"}
	var out bytes.Buffer
	if err := shardPlan([]string{"-map", path, "-channels", strings.Join(channels, ",")}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	m, err := shard.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, ch := range channels {
		want[m.Owner(ch).ID]++
	}
	rows := nodeRow.FindAllStringSubmatch(out.String(), -1)
	if len(rows) != len(m.Nodes()) {
		t.Fatalf("%d node rows, want %d:\n%s", len(rows), len(m.Nodes()), out.String())
	}
	sum := 0
	for _, r := range rows {
		n, _ := strconv.Atoi(r[2])
		if n != want[r[1]] {
			t.Errorf("node %s: %d keys printed, the map owns %d", r[1], n, want[r[1]])
		}
		sum += n
	}
	if sum != len(channels) {
		t.Errorf("per-node counts sum to %d, want %d channels:\n%s", sum, len(channels), out.String())
	}
	for _, ch := range channels {
		if !regexp.MustCompile(`(?m)^  ` + ch + `\s+-> ` + m.Owner(ch).ID + `$`).MatchString(out.String()) {
			t.Errorf("no owner line for %s:\n%s", ch, out.String())
		}
	}
}

// TestPlanAddPreview: a joining node claims some keys, not none and
// not the world.
func TestPlanAddPreview(t *testing.T) {
	path := writeShardMap(t)
	var out bytes.Buffer
	if err := shardPlan([]string{"-map", path, "-keys", "10000", "-add", "c=http://127.0.0.1:18153"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	row := movedRow.FindStringSubmatch(out.String())
	if row == nil {
		t.Fatalf("no reshard preview:\n%s", out.String())
	}
	moved, _ := strconv.Atoi(row[1])
	total, _ := strconv.Atoi(row[2])
	if total != 10000 || moved == 0 || moved >= total {
		t.Fatalf("moved %d of %d keys, want some but fewer than all:\n%s", moved, total, out.String())
	}
}

func TestPlanRejects(t *testing.T) {
	path := writeShardMap(t)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no map", []string{"-channels", "live"}, "-map is required"},
		{"remove of an unknown node", []string{"-map", path, "-remove", "zz"}, `-remove "zz": no such node`},
		{"add and remove", []string{"-map", path, "-add", "c=http://127.0.0.1:18153", "-remove", "a"}, "-add and -remove"},
		{"add without an address", []string{"-map", path, "-add", "c"}, "-add wants id=addr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := shardPlan(tc.args, io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("shard plan %v: %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
