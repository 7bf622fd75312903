package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: fmt.Sprintf("node-%02d", i), Addr: fmt.Sprintf("http://10.0.0.%d:8080", i+1)}
	}
	return nodes
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("channel-%05d", i)
	}
	return keys
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := New([]Node{{ID: "", Addr: "http://x"}}, 0); err == nil {
		t.Fatal("empty node ID accepted")
	}
	if _, err := New([]Node{{ID: "a", Addr: ""}}, 0); err == nil {
		t.Fatal("empty node address accepted")
	}
	if _, err := New([]Node{{ID: "a", Addr: "http://x"}, {ID: "a", Addr: "http://y"}}, 0); err == nil {
		t.Fatal("duplicate node ID accepted")
	}
}

// Ownership must be a pure function of the spec: two maps built
// independently — in different input order — agree on every key and on
// the epoch. This is the "deterministic across processes" property the
// /v1/shard/* epoch exchange relies on.
func TestDeterministicAcrossBuilds(t *testing.T) {
	nodes := testNodes(8)
	a, err := New(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed input order: the canonical ID sort must erase it.
	rev := make([]Node, len(nodes))
	for i, n := range nodes {
		rev[len(nodes)-1-i] = n
	}
	b, err := New(rev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epoch differs across build orders: %s vs %s", a.Epoch(), b.Epoch())
	}
	for _, k := range testKeys(5000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("owner of %q differs: %v vs %v", k, ao, bo)
		}
	}
}

func TestEpochChangesWithSpec(t *testing.T) {
	a, _ := New(testNodes(4), 0)
	b, _ := New(testNodes(5), 0)
	c, _ := New(testNodes(4), 64)
	if a.Epoch() == b.Epoch() {
		t.Fatal("epoch identical across different member sets")
	}
	if a.Epoch() == c.Epoch() {
		t.Fatal("epoch identical across different replica counts")
	}
	readdr := testNodes(4)
	readdr[0].Addr = "http://10.9.9.9:8080"
	d, _ := New(readdr, 0)
	if a.Epoch() == d.Epoch() {
		t.Fatal("epoch identical after re-addressing a node")
	}
	// Re-addressing must not move ownership: the ring hashes IDs only.
	for _, k := range testKeys(2000) {
		if a.Owner(k).ID != d.Owner(k).ID {
			t.Fatalf("re-addressing moved key %q", k)
		}
	}
}

// Adding one node to an N-node map must move only ~K/N keys, and every
// moved key must land on the new node — the defining consistent-hashing
// property. Removal is the mirror image.
func TestStabilityOnAdd(t *testing.T) {
	const n, keyCount = 8, 20000
	keys := testKeys(keyCount)
	old, err := New(testNodes(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New(testNodes(n+1), 0)
	if err != nil {
		t.Fatal(err)
	}
	added := fmt.Sprintf("node-%02d", n)
	moved := Moved(old, grown, keys)
	for _, k := range moved {
		if owner := grown.Owner(k).ID; owner != added {
			t.Fatalf("key %q moved to %q, not the added node", k, owner)
		}
	}
	frac := float64(len(moved)) / keyCount
	want := 1.0 / float64(n+1)
	if frac < want/2.5 || frac > want*2.5 {
		t.Fatalf("add moved %.3f of keys; want ~%.3f", frac, want)
	}
}

func TestStabilityOnRemove(t *testing.T) {
	const n, keyCount = 8, 20000
	keys := testKeys(keyCount)
	old, err := New(testNodes(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := New(testNodes(n-1), 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := fmt.Sprintf("node-%02d", n-1)
	moved := Moved(old, shrunk, keys)
	movedSet := make(map[string]bool, len(moved))
	for _, k := range moved {
		if owner := old.Owner(k).ID; owner != removed {
			t.Fatalf("key %q moved but was owned by %q, not the removed node", k, owner)
		}
		movedSet[k] = true
	}
	// Every key the removed node owned must have moved somewhere.
	for _, k := range keys {
		if old.Owner(k).ID == removed && !movedSet[k] {
			t.Fatalf("orphaned key %q still owned by removed node", k)
		}
	}
	frac := float64(len(moved)) / keyCount
	want := 1.0 / float64(n)
	if frac < want/2.5 || frac > want*2.5 {
		t.Fatalf("remove moved %.3f of keys; want ~%.3f", frac, want)
	}
}

// Every node must own a meaningful share: with 128 replicas the
// max/min skew stays modest, and no node may end up starved.
func TestBalance(t *testing.T) {
	const n, keyCount = 8, 20000
	m, err := New(testNodes(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, k := range testKeys(keyCount) {
		counts[m.Owner(k).ID]++
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d nodes own keys", len(counts), n)
	}
	for id, c := range counts {
		frac := float64(c) / keyCount
		if frac < 1.0/(3*float64(n)) {
			t.Fatalf("node %s owns only %.3f of keys", id, frac)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	m, err := New(testNodes(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSpec(m.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != m.Epoch() {
		t.Fatalf("spec round-trip changed epoch: %s vs %s", back.Epoch(), m.Epoch())
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "map.json")
	spec := `{"replicas": 64, "nodes": [
		{"id": "a", "addr": "http://127.0.0.1:9001"},
		{"id": "b", "addr": "http://127.0.0.1:9002"}
	]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Nodes()); got != 2 {
		t.Fatalf("parsed %d nodes, want 2", got)
	}
	if m.Replicas() != 64 {
		t.Fatalf("replicas = %d, want 64", m.Replicas())
	}
	if nodes := m.Nodes(); nodes[0].ID != "a" || nodes[1].ID != "b" {
		t.Fatalf("nodes = %+v, want a and b", nodes)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := ParseFile(bad); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
