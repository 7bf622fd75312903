package main

// `shard plan` is the federation toolbox for the DESIGN.md §17
// shard/router deployment:
//
//	shard plan -map map.json -channels music,news,ch
//	                 print the consistent-hash ownership of each
//	                 channel and the per-node balance
//	shard plan -map map.json -keys 10000 -add d=host:8083
//	                 preview a reshard: how many keys move when a
//	                 node joins (or leaves, with -remove id)

import (
	"fmt"
	"io"
	"strings"

	"lpvs/internal/shard"
)

// shardPlan prints the ownership distribution of a shard map over a key
// set, and optionally previews the churn of one membership change —
// the operational face of the internal/shard property tests (a
// joining node should claim ~K/N keys, not reshuffle the world).
func shardPlan(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("shard plan", stderr)
	mapFile := fs.String("map", "", "shard map JSON file (required)")
	channels := fs.String("channels", "", "comma-separated channel IDs to place (a channel's key is its ID)")
	keys := fs.Int("keys", 0, "place N synthetic keys instead of named channels")
	add := fs.String("add", "", "preview adding a node, as id=addr")
	remove := fs.String("remove", "", "preview removing a node by ID")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *mapFile == "" {
		return fmt.Errorf("plan: -map is required")
	}
	if *add != "" && *remove != "" {
		return fmt.Errorf("plan: -add and -remove each preview one membership change; give one")
	}
	m, err := shard.ParseFile(*mapFile)
	if err != nil {
		return err
	}

	var keyList []string
	if *channels != "" {
		for _, ch := range strings.Split(*channels, ",") {
			if ch = strings.TrimSpace(ch); ch != "" {
				keyList = append(keyList, ch)
			}
		}
	} else {
		n := *keys
		if n <= 0 {
			n = 1000
		}
		for i := 0; i < n; i++ {
			keyList = append(keyList, fmt.Sprintf("synthetic-%05d", i))
		}
	}

	fmt.Fprintf(stdout, "map     %s\n", *mapFile)
	fmt.Fprintf(stdout, "epoch   %s\n", m.Epoch())
	fmt.Fprintf(stdout, "nodes   %d, replicas %d, keys %d\n\n", len(m.Nodes()), m.Replicas(), len(keyList))

	perNode := map[string]int{}
	for _, k := range keyList {
		perNode[m.Owner(k).ID]++
	}
	for _, n := range m.Nodes() {
		fmt.Fprintf(stdout, "  %-16s %-24s %6d keys (%5.1f%%)\n",
			n.ID, n.Addr, perNode[n.ID], 100*float64(perNode[n.ID])/float64(len(keyList)))
	}
	if *channels != "" {
		fmt.Fprintln(stdout)
		for _, k := range keyList {
			fmt.Fprintf(stdout, "  %-24s -> %s\n", k, m.Owner(k).ID)
		}
	}

	if *add == "" && *remove == "" {
		return nil
	}
	spec := m.Spec()
	next := spec.Nodes
	if *add != "" {
		id, addr, ok := strings.Cut(*add, "=")
		if !ok {
			return fmt.Errorf("plan: -add wants id=addr, got %q", *add)
		}
		next = append(append([]shard.Node{}, next...), shard.Node{ID: id, Addr: addr})
	} else {
		kept := next[:0:0]
		for _, n := range next {
			if n.ID != *remove {
				kept = append(kept, n)
			}
		}
		if len(kept) == len(next) {
			return fmt.Errorf("plan: -remove %q: no such node", *remove)
		}
		next = kept
	}
	nm, err := shard.New(next, spec.Replicas)
	if err != nil {
		return err
	}
	moved := shard.Moved(m, nm, keyList)
	fmt.Fprintf(stdout, "\nreshard preview: %d -> %d nodes, epoch %s\n", len(m.Nodes()), len(nm.Nodes()), nm.Epoch())
	fmt.Fprintf(stdout, "  moved %d/%d keys (%.1f%%, ideal ~%.1f%%)\n",
		len(moved), len(keyList), 100*float64(len(moved))/float64(len(keyList)),
		100/float64(max(len(m.Nodes()), len(nm.Nodes()))))
	return nil
}
