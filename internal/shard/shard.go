// Package shard implements the consistent-hash shard map that
// federates VCs (channels) across lpvsd nodes (DESIGN.md §17).
//
// The map hashes channel IDs onto a ring of virtual node points
// (FNV-1a 64-bit, Replicas points per node), so adding or removing one
// node moves only ~K/N of the keys — every other channel keeps its
// owner and its learned posteriors.
// Ownership is a pure function of the map spec: two processes that
// parse the same spec agree on every owner, which the Epoch fingerprint
// makes checkable over the wire (/v1/shard/* requests carry it; a
// mismatch is a 409 shard_epoch_mismatch).
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual points per node on the hash ring.
// 128 keeps the max/min ownership skew under ~1.3 for small clusters
// while the ring stays a few KiB.
const DefaultReplicas = 128

// Node is one lpvsd shard: a stable identity plus its base URL.
type Node struct {
	// ID is the node's stable identity — it, not the address, feeds the
	// hash ring, so re-addressing a node does not reshuffle ownership.
	ID string `json:"id"`
	// Addr is the node's base URL (e.g. "http://10.0.0.3:8080").
	Addr string `json:"addr"`
}

// Spec is the wire and file form of a shard map: what -shard-map files
// contain and what POST /v1/shard/map installs.
type Spec struct {
	// Replicas is the virtual points per node (0 = DefaultReplicas).
	Replicas int `json:"replicas,omitempty"`
	// Nodes is the member set; order does not matter.
	Nodes []Node `json:"nodes"`
}

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node int // index into nodes
}

// Map is an immutable consistent-hash shard map. Build one with New,
// FromSpec or ParseFile; all methods are safe for concurrent use.
type Map struct {
	nodes    []Node // sorted by ID
	replicas int
	ring     []point // sorted by (hash, node)
	epoch    string
}

// New builds a map over the node set. Node IDs and addresses must be
// non-empty and IDs unique; replicas <= 0 means DefaultReplicas.
func New(nodes []Node, replicas int) (*Map, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: empty node set")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := make([]Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, n := range sorted {
		if n.ID == "" {
			return nil, fmt.Errorf("shard: node %d has empty ID", i)
		}
		if n.Addr == "" {
			return nil, fmt.Errorf("shard: node %q has empty address", n.ID)
		}
		if i > 0 && sorted[i-1].ID == n.ID {
			return nil, fmt.Errorf("shard: duplicate node ID %q", n.ID)
		}
	}
	m := &Map{nodes: sorted, replicas: replicas}
	m.ring = make([]point, 0, len(sorted)*replicas)
	for i, n := range sorted {
		for r := 0; r < replicas; r++ {
			m.ring = append(m.ring, point{hash: hashKey(n.ID + "#" + strconv.Itoa(r)), node: i})
		}
	}
	// Ties between virtual points break by node index (ID order), so the
	// ring — and every Owner answer — is a pure function of the spec.
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.ring[i].node < m.ring[j].node
	})
	m.epoch = epochOf(sorted, replicas)
	return m, nil
}

// FromSpec builds a map from its wire/file form.
func FromSpec(sp Spec) (*Map, error) { return New(sp.Nodes, sp.Replicas) }

// Parse decodes a JSON Spec and builds the map.
func Parse(data []byte) (*Map, error) {
	var sp Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("shard: parse map: %w", err)
	}
	return FromSpec(sp)
}

// ParseFile reads a -shard-map JSON file and builds the map.
func ParseFile(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: read map: %w", err)
	}
	return Parse(data)
}

// Owner returns the node owning a key (the first ring point at or
// after the key's hash, wrapping).
func (m *Map) Owner(key string) Node {
	h := hashKey(key)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0
	}
	return m.nodes[m.ring[i].node]
}

// Nodes returns the member set, sorted by ID.
func (m *Map) Nodes() []Node {
	out := make([]Node, len(m.nodes))
	copy(out, m.nodes)
	return out
}

// Replicas returns the virtual points per node.
func (m *Map) Replicas() int { return m.replicas }

// Spec returns the map's wire/file form.
func (m *Map) Spec() Spec {
	return Spec{Replicas: m.replicas, Nodes: m.Nodes()}
}

// Epoch is the map's version fingerprint: the SHA-256 of its canonical
// encoding. Two processes that built the same spec report the same
// epoch, so a router and its shards can cheaply verify they agree on
// ownership before acting on it.
func (m *Map) Epoch() string { return m.epoch }

// Moved returns the subset of keys whose owner differs between two
// maps, in input order — the channels whose device state is worth
// handing off on a reshard.
func Moved(old, next *Map, keys []string) []string {
	var out []string
	for _, k := range keys {
		if old.Owner(k).ID != next.Owner(k).ID {
			out = append(out, k)
		}
	}
	return out
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// epochOf fingerprints the canonical map encoding: the replica count
// and the ID-sorted member list. Addresses are included — re-addressing
// a node is a new map version even though ownership is unchanged, and
// peers should learn the new address.
func epochOf(sorted []Node, replicas int) string {
	h := sha256.New()
	fmt.Fprintf(h, "replicas=%d\n", replicas)
	for _, n := range sorted {
		fmt.Fprintf(h, "%s %s\n", n.ID, n.Addr)
	}
	return hex.EncodeToString(h.Sum(nil))
}
