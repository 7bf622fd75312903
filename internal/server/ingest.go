package server

import (
	"net/http"
	"time"

	"lpvs/internal/wire"
)

// This file is the report-ingest path (DESIGN.md §16): POST /v1/report
// in both codecs. wire.ReadReport owns the negotiation and the decode;
// a binary body streams record by record — never buffered whole — into
// pooled scratch, so the steady-state cost per report is the scheduler
// hand-off, not the parser.
//
// Pooling lifecycle and aliasing rules: an ingestScratch (wire.Scratch
// + result slice) is checked out per binary request and returned when
// the handler exits. The decoded ReportRequests live in the scratch
// and are handed to acceptReportLocked *by value* — every field the
// server retains (scheduler.Request, deviceState) is a copy, and
// interned ID strings are immutable — so reusing the scratch on the
// next checkout can never mutate state already handed to the
// scheduler. The aliasing regression test pins this.

// DefaultMaxBatchRecords caps records per batch report. The body byte
// cap alone is not enough: a binary record is ~60 bytes, so a 16 MiB
// body could smuggle ~280k records past a byte-sized limit.
const DefaultMaxBatchRecords = 100_000

// ingestScratch is one pooled decode workspace.
type ingestScratch struct {
	wire    *wire.Scratch
	results []BatchReportResult
}

// getScratch checks a decode workspace out of the ingest free list,
// counting gets and misses for the lpvs_ingest_pool_* hit-rate
// telemetry.
func (s *Server) getScratch() *ingestScratch {
	s.ingestPoolGets.Add(1)
	sc := s.ingestFree.Get()
	if sc == nil {
		s.ingestPoolMisses.Add(1)
		sc = &ingestScratch{wire: wire.NewScratch()}
	}
	return sc
}

// noteIngest records one decoded report message in the codec-split
// counters (metric families and the uint64 status mirrors).
func (s *Server) noteIngest(msg *wire.Message, decodeSec float64) {
	codec, bytes, records := "json", &s.ingestBytesJSON, &s.ingestRecordsJSON
	if msg.Binary {
		codec, bytes, records = "binary", &s.ingestBytesWire, &s.ingestRecordsWire
	}
	bytes.Add(uint64(msg.Bytes))
	records.Add(uint64(len(msg.Reports)))
	m := s.metrics
	m.ingestBytes.With(codec).Add(float64(msg.Bytes))
	m.ingestRecords.With(codec).Add(float64(len(msg.Reports)))
	m.ingestDecode.With(codec).Observe(decodeSec)
}

// maxBatchRecords resolves the configured per-batch record cap
// (negative = unbounded).
func (s *Server) maxBatchRecords() int {
	if s.maxBatch < 0 {
		return int(^uint(0) >> 1)
	}
	return s.maxBatch
}

// handleReport accepts one device report or a batch — a fleet's
// round-trips per slot cut from N to 1 — in either codec. The body is
// decoded off the network first, then every record is staged under one
// lock acquisition: valid reports are accepted even when siblings
// fail. A single report answers its own outcome; a batch answers 200
// with per-item outcomes (NewBatchReportResponse). Responses are JSON
// in both codecs.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var sc *ingestScratch
	var one [1]wire.ReportRequest
	msg, ok := DecodeReport(w, r, s.maxBatchRecords(), func() *wire.Scratch {
		sc = s.getScratch()
		return sc.wire
	}, &one)
	var rejected []BatchReportResult
	if sc != nil {
		defer s.ingestFree.Put(sc)
		rejected = sc.results[:0]
	}
	if !ok {
		return
	}
	s.noteIngest(&msg, time.Since(start).Seconds())

	var aerr *apiError // the last record's outcome: a single report's answer
	s.mu.Lock()
	slot := s.slot
	for i := range msg.Reports {
		if aerr = s.acceptReportLocked(msg.Reports[i]); aerr != nil && msg.Batch {
			rejected = append(rejected, BatchReportResult{
				Index:    i,
				DeviceID: msg.Reports[i].DeviceID,
				Error:    &ErrorBody{Code: aerr.Code, Message: aerr.Message, Retryable: retryable(aerr.Status)},
			})
		}
	}
	s.mu.Unlock()
	switch {
	case msg.Batch:
		if sc != nil {
			sc.results = rejected
		}
		if len(rejected) == 0 {
			// A reused scratch's empty rows would answer "results":[]
			// where a fresh one — and a router — answer null.
			rejected = nil
		}
		WriteJSON(w, http.StatusOK, NewBatchReportResponse(slot, &msg, rejected))
	case aerr != nil:
		aerr.write(w)
	default:
		WriteAppended(w, ReportResponse{Slot: slot, Accepted: true})
	}
}

// NewBatchReportResponse shapes a batch's outcome for the codec it
// arrived in. rejected lists the refused records in ascending Index
// order, each in the rejected-only form: Index, DeviceID, Error. A
// binary batch answers exactly those rows — an all-accepted 10k-device
// batch answers with three integers instead of 10k echo objects — and a
// JSON batch one positional row per record.
func NewBatchReportResponse(slot int, msg *wire.Message, rejected []BatchReportResult) BatchReportResponse {
	resp := BatchReportResponse{
		Slot:     slot,
		Accepted: len(msg.Reports) - len(rejected),
		Rejected: len(rejected),
		Results:  rejected,
	}
	if msg.Binary {
		return resp
	}
	resp.Results = make([]BatchReportResult, len(msg.Reports))
	for i := range msg.Reports {
		resp.Results[i] = BatchReportResult{DeviceID: msg.Reports[i].DeviceID, Accepted: true}
	}
	for _, row := range rejected {
		i := row.Index
		row.Index = 0 // positional rows carry no index
		resp.Results[i] = row
	}
	return resp
}
