package scheduler

import (
	"bytes"
	"sort"
)

// StreamState is the persistable slice of one incremental scheduling
// stream (durable state, DESIGN.md §14): the previous slot's Phase-1
// picks — the BnB warm seed — plus the config fingerprint guarding
// them. Only the warm seed is persisted. It is the one cache whose
// restoration is proven decision-neutral (internal/ilp adopts a warm
// result only when it strictly improves on the seeded bound, so warm
// and cold searches land on identical decisions); the plan, replay,
// and Phase-1 problem caches rebuild naturally within one slot and
// carrying them would buy nothing but snapshot bytes.
type StreamState struct {
	// Key is the stream's state key (VC.StateKey, or the VC ID when
	// unset).
	Key string
	// ConfigSig is the owning scheduler's versioned config fingerprint.
	// RestoreStreamStates drops states whose signature does not match
	// the restoring scheduler's, so a config change cold-starts cleanly
	// instead of warm-seeding from a different problem.
	ConfigSig []byte
	// WarmSelected is the previous slot's Phase-1 pick set, sorted by
	// device ID.
	WarmSelected []string
}

// ConfigSig returns a copy of the scheduler's decision-relevant config
// fingerprint, or nil when the config is not fingerprintable (custom
// anxiety model) — the same condition that disables incremental state.
func (s *Scheduler) ConfigSig() []byte {
	return append([]byte(nil), s.cfgSig...)
}

// StreamStates snapshots every incremental stream's persistable state,
// sorted by key. Empty when incremental mode is off or no stream has
// decided a slot yet.
func (p *Pool) StreamStates() []StreamState {
	p.mu.Lock()
	states := make(map[string]*slotState, len(p.states))
	for key, st := range p.states {
		states[key] = st
	}
	p.mu.Unlock()
	out := make([]StreamState, 0, len(states))
	for key, st := range states {
		warm := st.warmSnapshot()
		if len(warm) == 0 {
			continue
		}
		out = append(out, StreamState{
			Key:          key,
			ConfigSig:    append([]byte(nil), p.sched.cfgSig...),
			WarmSelected: warm,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// RestoreStreamStates seeds the pool's incremental streams from
// persisted states, returning how many were adopted. A state with an
// empty seed, a config signature that does not match the restoring
// scheduler's, or a key already live in the pool is skipped — skipping
// is always safe because a missing warm seed only costs BnB nodes,
// never changes a decision. When incremental mode is off everything is
// skipped.
func (p *Pool) RestoreStreamStates(states []StreamState) int {
	restored := 0
	for i := range states {
		ss := &states[i]
		if ss.Key == "" || len(ss.WarmSelected) == 0 {
			continue
		}
		if len(ss.ConfigSig) == 0 || len(p.sched.cfgSig) == 0 || !bytes.Equal(ss.ConfigSig, p.sched.cfgSig) {
			continue
		}
		st, created := p.stateFor(ss.Key)
		if st == nil {
			return restored
		}
		if created {
			st.seedWarm(ss.WarmSelected)
			restored++
		}
	}
	return restored
}

// warmSnapshot returns the sorted previous-slot pick set, or nil.
func (st *slotState) warmSnapshot() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.prevSelected) == 0 {
		return nil
	}
	ids := make([]string, 0, len(st.prevSelected))
	for id := range st.prevSelected {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// seedWarm installs a restored pick set as the warm seed.
func (st *slotState) seedWarm(ids []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.prevSelected = make(map[string]bool, len(ids))
	for _, id := range ids {
		st.prevSelected[id] = true
	}
}
