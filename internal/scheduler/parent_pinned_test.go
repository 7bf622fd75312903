package scheduler

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/display"
	"lpvs/internal/edge"
	"lpvs/internal/stats"
)

// corpusGolden holds what the cold serial scheduler decided at commit
// 5d6406f — the last build whose Phase-1 bound was the Dantzig bound
// alone — for every VC of the 210-instance differential corpus and of
// two 200-device instances (the corpus stops at 20 devices a VC, where
// no search reaches the node cap): the Phase-1 optimality flag and
// value bits, and the SHA-256 of the decision's canonical bytes.
// RECORD_PARENT_GOLDEN=1 rewrites it from the build under test — only
// meaningful from a checkout of the commit being pinned, with this file
// copied in.
const corpusGolden = "corpus_parent.golden"

type corpusLine struct {
	optimal bool
	phase1  uint64 // math.Float64bits(Decision.Phase1Value)
	sum     string // hex SHA-256 of Decision.Canonical()
}

func (l corpusLine) format(key string) string {
	return fmt.Sprintf("%s optimal=%t phase1=%016x canonical=%s\n", key, l.optimal, l.phase1, l.sum)
}

func canonicalSum(canonical []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(canonical))
}

// TestCorpusParentPinned holds the whole scheduler to the recorded
// parent across a Phase-1 bound change: a decision whose Phase-1 search
// the parent completed must keep its canonical bytes; one the parent
// left node-capped may change them only towards a Phase-1 value at
// least as high, and is listed.
func TestCorpusParentPinned(t *testing.T) {
	got := make(map[string]corpusLine)
	canonical := make(map[string][]byte)
	var keys []string
	decide := func(inst string, vcs []VC, cfg Config) {
		res, err := DecideSerial(mustScheduler(t, cfg), vcs)
		if err != nil {
			t.Fatalf("instance %s: %v", inst, err)
		}
		for _, vc := range res.VCs {
			key := inst + "/" + vc.VC
			keys = append(keys, key)
			canonical[key] = vc.Decision.Canonical()
			got[key] = corpusLine{
				optimal: vc.Decision.OptimalPhase1,
				phase1:  math.Float64bits(vc.Decision.Phase1Value),
				sum:     canonicalSum(canonical[key]),
			}
		}
	}
	base := makeCluster(t, 64, 999)
	rng := stats.NewRNG(20260805) // TestPoolVsSerialDifferential's corpus
	for inst := 0; inst < 210; inst++ {
		vcs, cfg := randomInstance(rng, base)
		decide(fmt.Sprintf("%03d", inst), vcs, cfg)
	}
	// One channel's audience on a 60-stream server: four 200-device VCs
	// with the three display resolutions makeVCSet mixes, four all 1080p.
	// One storage weight per VC, three or one compute weights.
	server, err := edge.NewServer(60)
	if err != nil {
		t.Fatal(err)
	}
	decide("mixed200", makeVCSet(t, 4, 200, 77), Config{Server: server, Lambda: 1})
	uniform := makeVCSet(t, 4, 200, 78)
	for _, vc := range uniform {
		for i := range vc.Requests {
			vc.Requests[i].Display.Resolution = display.Res1080p
		}
	}
	decide("1080p200", uniform, Config{Server: server, Lambda: 1})
	path := filepath.Join("testdata", corpusGolden)
	if os.Getenv("RECORD_PARENT_GOLDEN") != "" {
		var b strings.Builder
		for _, key := range keys {
			b.WriteString(got[key].format(key))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen, capped := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var key string
		var want corpusLine
		if _, err := fmt.Sscanf(sc.Text(), "%s optimal=%t phase1=%x canonical=%s", &key, &want.optimal, &want.phase1, &want.sum); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		have, ok := got[key]
		if !ok {
			t.Fatalf("%s: in the golden, not in the corpus", key)
		}
		seen++
		if want.optimal {
			if have != want {
				t.Errorf("%s: diverged from a decision the parent proved:\n got  %s want %s", key, have.format(key), want.format(key))
			}
			continue
		}
		capped++
		if math.Float64frombits(have.phase1) < math.Float64frombits(want.phase1) {
			t.Errorf("%s: phase-1 value %v below the parent's capped %v",
				key, math.Float64frombits(have.phase1), math.Float64frombits(want.phase1))
		}
		// With the flag put back, do the parent's bytes reappear?
		flagOnly := canonicalSum(bytes.Replace(canonical[key], []byte(" optimal=true "), []byte(" optimal=false "), 1)) == want.sum
		change := "decision bytes changed beyond the flag"
		switch {
		case have.sum == want.sum:
			change = "canonical bytes unchanged"
		case flagOnly:
			change = "canonical bytes differ in optimal=false→true only"
		}
		t.Logf("%s: parent phase-1 was node-capped at %v; now optimal=%t at %v; %s",
			key, math.Float64frombits(want.phase1), have.optimal, math.Float64frombits(have.phase1), change)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Fatalf("golden covers %d VC decisions, corpus has %d", seen, len(got))
	}
	t.Logf("%d VC decisions; parent proved %d, node-capped %d", seen, seen-capped, capped)
}
