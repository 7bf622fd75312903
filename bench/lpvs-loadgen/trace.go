package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent 0 means a root.
// Spans of one slot share Slot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Slot   int    `json:"slot"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. The benchmark
// records them from its own files, around its calls into each layer;
// a nil tracer records nothing, which is the untraced path.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent, slot int, name string, start, end time.Time) int {
	id := t.open(parent, slot, name, start)
	t.close(id, end)
	return id
}

// open records a span whose end is not known yet, so that spans
// finishing inside it can name it as their parent; close ends it.
func (t *tracer) open(parent, slot int, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	at := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Slot: slot, Name: name, Start: at, End: at})
	return len(t.spans)
}

func (t *tracer) close(id int, end time.Time) {
	if t != nil {
		t.spans[id-1].End = int64(end.Sub(t.t0))
	}
}

// nest gives every span named parent a synthetic child of (at most)
// dur(parent's slot), placed after the children the parent already has
// and clipped to the parent's end. It is how a layer's cost measured
// off the hot path (an in-process handler call, a codec run on the
// captured body) is charged inside the client-side span that contained
// it.
func (t *tracer) nest(parent, child string, dur func(slot int) time.Duration) {
	if t == nil {
		return
	}
	cursor := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > cursor[s.Parent] {
			cursor[s.Parent] = s.End
		}
	}
	for _, p := range t.spans[:len(t.spans):len(t.spans)] {
		if p.Name != parent {
			continue
		}
		start := max(p.Start, cursor[p.ID])
		end := min(start+int64(dur(p.Slot)), p.End)
		if end <= start {
			continue
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: p.ID, Slot: p.Slot, Name: child, Start: start, End: end,
		})
	}
}

// fixed is a nest duration that does not depend on the slot.
func fixed(d time.Duration) func(int) time.Duration {
	return func(int) time.Duration { return d }
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// ledgerRow is one layer's mean self time per traced slot.
type ledgerRow struct {
	Name    string  `json:"name"`
	SelfMS  float64 `json:"self_ms_per_slot"`
	SharePC float64 `json:"share_of_slot_p50_pct"`
}

// ledger attributes the traced slots' wall time to span names. Spans
// named bench.* are the harness's own loop time: the unattributed
// remainder.
func ledger(spans []span, slotP50MS float64) (rows []ledgerRow, unattributedPC float64) {
	self := selfTimes(spans)
	byName := map[string]int64{}
	slots := map[int]bool{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		slots[s.Slot] = true
	}
	if len(slots) == 0 || slotP50MS <= 0 {
		return nil, 0
	}
	for name, ns := range byName {
		perSlot := float64(ns) / 1e6 / float64(len(slots))
		row := ledgerRow{Name: name, SelfMS: perSlot, SharePC: 100 * perSlot / slotP50MS}
		if strings.HasPrefix(name, "bench.") {
			unattributedPC += row.SharePC
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows, unattributedPC
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
