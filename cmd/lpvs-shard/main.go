// Command lpvs-shard is the federation toolbox for the DESIGN.md §17
// shard/router deployment.
//
// Usage:
//
//	lpvs-shard plan -map map.json -channels music,news,ch
//	                 print the consistent-hash ownership of each
//	                 channel and the per-node balance
//	lpvs-shard plan -map map.json -keys 10000 -add d=host:8083
//	                 preview a reshard: how many keys move when a
//	                 node joins (or leaves, with -remove id)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lpvs/internal/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = runPlan(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lpvs-shard: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpvs-shard:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lpvs-shard plan -map map.json [-channels a,b | -keys N] [-add id=addr] [-remove id]`)
}

// runPlan prints the ownership distribution of a shard map over a key
// set, and optionally previews the churn of one membership change —
// the operational face of the internal/shard property tests (a
// joining node should claim ~K/N keys, not reshuffle the world).
func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	mapFile := fs.String("map", "", "shard map JSON file (required)")
	channels := fs.String("channels", "", "comma-separated channel IDs to place (keys are ch:<id>)")
	keys := fs.Int("keys", 0, "place N synthetic keys instead of named channels")
	add := fs.String("add", "", "preview adding a node, as id=addr")
	remove := fs.String("remove", "", "preview removing a node by ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mapFile == "" {
		return fmt.Errorf("plan: -map is required")
	}
	m, err := shard.ParseFile(*mapFile)
	if err != nil {
		return err
	}

	var keyList []string
	switch {
	case *channels != "":
		for _, ch := range strings.Split(*channels, ",") {
			if ch = strings.TrimSpace(ch); ch != "" {
				keyList = append(keyList, "ch:"+ch)
			}
		}
	case *keys > 0:
		for i := 0; i < *keys; i++ {
			keyList = append(keyList, fmt.Sprintf("ch:synthetic-%05d", i))
		}
	default:
		*keys = 1000
		for i := 0; i < 1000; i++ {
			keyList = append(keyList, fmt.Sprintf("ch:synthetic-%05d", i))
		}
	}

	fmt.Printf("map     %s\n", *mapFile)
	fmt.Printf("epoch   %s\n", m.Epoch())
	fmt.Printf("nodes   %d, replicas %d, keys %d\n\n", len(m.Nodes()), m.Replicas(), len(keyList))

	perNode := map[string]int{}
	for _, k := range keyList {
		perNode[m.Owner(k).ID]++
	}
	for _, n := range m.Nodes() {
		fmt.Printf("  %-16s %-24s %6d keys (%5.1f%%)\n",
			n.ID, n.Addr, perNode[n.ID], 100*float64(perNode[n.ID])/float64(len(keyList)))
	}
	if *channels != "" {
		fmt.Println()
		for _, k := range keyList {
			fmt.Printf("  %-24s -> %s\n", strings.TrimPrefix(k, "ch:"), m.Owner(k).ID)
		}
	}

	if *add == "" && *remove == "" {
		return nil
	}
	spec := m.Spec()
	next := spec.Nodes
	switch {
	case *add != "":
		id, addr, ok := strings.Cut(*add, "=")
		if !ok {
			return fmt.Errorf("plan: -add wants id=addr, got %q", *add)
		}
		next = append(append([]shard.Node{}, next...), shard.Node{ID: id, Addr: addr})
	case *remove != "":
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
	fmt.Printf("\nreshard preview: %d -> %d nodes, epoch %s\n", len(m.Nodes()), len(nm.Nodes()), nm.Epoch())
	fmt.Printf("  moved %d/%d keys (%.1f%%, ideal ~%.1f%%)\n",
		len(moved), len(keyList), 100*float64(len(moved))/float64(len(keyList)),
		100/float64(max(len(m.Nodes()), len(nm.Nodes()))))
	return nil
}
