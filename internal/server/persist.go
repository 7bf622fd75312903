package server

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"lpvs/internal/bayes"
	"lpvs/internal/obs/audit"
	"lpvs/internal/persist"
	"lpvs/internal/scheduler"
)

// Restore-path labels: which recovery path boot took, surfaced in
// /v1/status (restore_path) and lpvs_snapshot_restore_total{path}.
const (
	// RestoreSnapshot: the snapshot file loaded and applied cleanly.
	RestoreSnapshot = "snapshot"
	// RestoreAudit: the snapshot was missing or unusable and the state
	// was approximately rebuilt from the decision audit log.
	RestoreAudit = "audit"
	// RestoreCold: no usable durable state; the daemon started empty.
	RestoreCold = "cold"
)

// SnapshotPath returns the daemon's snapshot file path, or "" when
// durable state is disabled.
func (s *Server) SnapshotPath() string {
	if s.cfg.SnapshotDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.SnapshotDir, persist.SnapshotFile)
}

// SaveSnapshot captures the daemon's durable state and writes it
// atomically to the snapshot file, updating the lpvs_snapshot_*
// counters. It is safe for concurrent use; cmd/lpvsd calls it from a
// background ticker and once more on shutdown.
func (s *Server) SaveSnapshot() error {
	path := s.SnapshotPath()
	if path == "" {
		return fmt.Errorf("server: snapshots disabled (no snapshot dir)")
	}
	s.mu.Lock()
	snap := s.snapshotLocked()
	s.mu.Unlock()
	data, err := snap.Encode()
	if err == nil {
		err = persist.WriteFileAtomic(path, data)
	}
	m := s.metrics
	if err != nil {
		m.snapErrors.Inc()
		s.log.Error("snapshot write failed", "path", path, "err", err)
		return err
	}
	m.snapWrites.Inc()
	m.snapLastUnix.Set(float64(time.Now().Unix()))
	m.snapLastBytes.Set(float64(len(data)))
	s.log.Debug("snapshot written",
		"path", path, "bytes", len(data), "slot", snap.Slot,
		"devices", len(snap.Devices), "pending", len(snap.Pending))
	return nil
}

// snapshotLocked assembles the durable state. Caller holds s.mu.
func (s *Server) snapshotLocked() *persist.Snapshot {
	snap := &persist.Snapshot{Slot: s.slot}
	ids := make([]string, 0, len(s.devices))
	for id := range s.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := s.devices[id]
		snap.Devices = append(snap.Devices, persist.DeviceState{
			ID:        id,
			Channel:   st.channel,
			Display:   st.spec,
			Transform: st.transform,
			Slot:      st.slot,
			Estimator: st.estimator.Snapshot(),
		})
	}
	// A copy: the snapshot is encoded after s.mu is released (Encode
	// sorts its own copy, so arrival order never reaches the file).
	snap.Pending = slices.Clone(s.pending)
	return snap
}

// loadDurableState restores the daemon before it reports ready,
// following the DESIGN.md §14 recovery order: snapshot → audit-log
// replay → cold start. Every failure demotes to the next path — never
// a partial load, never a panic. Called from New (single-threaded, so
// no locking).
func (s *Server) loadDurableState() {
	path := s.SnapshotPath()
	snap, err := persist.LoadSnapshot(path)
	if err == nil {
		if aerr := s.applySnapshot(snap); aerr == nil {
			s.restorePath = RestoreSnapshot
			s.restoreDetail = fmt.Sprintf("restored %d devices, %d pending reports at slot %d",
				len(snap.Devices), len(snap.Pending), snap.Slot)
			s.log.Info("durable state restored from snapshot",
				"path", path, "slot", snap.Slot, "devices", len(snap.Devices))
			return
		} else {
			err = aerr
		}
	}
	detail := "snapshot: " + err.Error()
	if errors.Is(err, fs.ErrNotExist) {
		detail = "no snapshot file"
	} else {
		s.log.Warn("snapshot unusable, trying audit recovery", "path", path, "err", err)
	}
	if s.cfg.AuditDir != "" {
		rsnap, aerr := s.recoverFromAudit()
		if aerr == nil {
			aerr = s.applySnapshot(rsnap)
		}
		switch {
		case aerr == nil:
			s.restorePath = RestoreAudit
			s.restoreDetail = fmt.Sprintf("%s; recovered %d devices at slot %d from audit log",
				detail, len(rsnap.Devices), rsnap.Slot)
			s.log.Warn("durable state approximately recovered from audit log",
				"slot", rsnap.Slot, "devices", len(rsnap.Devices), "detail", detail)
			return
		case errors.Is(aerr, fs.ErrNotExist):
			detail += "; no audit log"
		default:
			detail += "; audit recovery: " + aerr.Error()
			s.log.Warn("audit recovery failed", "err", aerr)
		}
	}
	s.restorePath = RestoreCold
	s.restoreDetail = detail
	s.log.Info("durable state: cold start", "detail", detail)
}

// recoverFromAudit rebuilds an approximate snapshot from the decision
// audit log, folded a record at a time. Before trusting the log it
// replays the most recent record, the one record the fold keeps, and
// requires a byte-identical decision — the cheap boot-time slice of the
// full `lpvsctl audit replay` verification.
func (s *Server) recoverFromAudit() (*persist.Snapshot, error) {
	var last *audit.Record
	snap, err := persist.RecoverFromAudit(filepath.Join(s.cfg.AuditDir, audit.FileName), func(rec *audit.Record) error {
		last = rec
		return nil
	})
	if err != nil {
		return nil, err
	}
	res, err := last.Replay()
	if err != nil {
		return nil, fmt.Errorf("replay slot %d: %w", last.Slot, err)
	}
	if !res.Match {
		return nil, fmt.Errorf("slot %d replay diverged, refusing audit recovery:\n%s", last.Slot, res.Diff())
	}
	return snap, nil
}

// applySnapshot rebuilds the daemon's mutable state from a decoded
// snapshot, all or nothing: every entry is validated into fresh maps
// first and the server is only mutated once nothing can fail, so a
// rejected snapshot leaves the daemon exactly as cold as before.
func (s *Server) applySnapshot(snap *persist.Snapshot) error {
	if snap.Slot < 0 {
		return fmt.Errorf("server: snapshot slot %d", snap.Slot)
	}
	devices := make(map[string]*deviceState, len(snap.Devices))
	for i := range snap.Devices {
		ds := &snap.Devices[i]
		if ds.ID == "" {
			return fmt.Errorf("server: snapshot device %d has empty ID", i)
		}
		if _, dup := devices[ds.ID]; dup {
			return fmt.Errorf("server: snapshot device %q duplicated", ds.ID)
		}
		est, err := bayes.FromSnapshot(ds.Estimator)
		if err != nil {
			return fmt.Errorf("server: snapshot device %q: %w", ds.ID, err)
		}
		if err := ds.Display.Validate(); err != nil {
			return fmt.Errorf("server: snapshot device %q: %w", ds.ID, err)
		}
		channel := ds.Channel
		if _, ok := s.streams[channel]; !ok {
			// The restored channel is no longer served (or the audit
			// recovery path, which does not know channels): keep the
			// device — and its learned posterior — on the default stream.
			channel = s.cfg.Stream.ID
		}
		devices[ds.ID] = &deviceState{
			estimator: est,
			spec:      ds.Display,
			transform: ds.Transform,
			slot:      ds.Slot,
			channel:   channel,
			// hasVerdict stays false: the restored verdict bit drives
			// chunk serving, but the explain endpoint returns 404 until
			// the next tick produces a full verdict.
		}
	}
	pending := make([]scheduler.Request, 0, len(snap.Pending))
	for i := range snap.Pending {
		req := snap.Pending[i]
		if err := req.Validate(); err != nil {
			return fmt.Errorf("server: snapshot pending report: %w", err)
		}
		st, ok := devices[req.DeviceID]
		if !ok {
			return fmt.Errorf("server: snapshot pending report for unknown device %q", req.DeviceID)
		}
		var dup bool
		if pending, dup = stage(pending, st, req); dup {
			return fmt.Errorf("server: snapshot pending report %q duplicated", req.DeviceID)
		}
	}
	s.slot = snap.Slot
	s.devices = devices
	s.pending = pending
	return nil
}
