package server

import (
	"net/http"
	"time"

	"lpvs/internal/wire"
)

// This file is the report-ingest path (DESIGN.md §16): POST /v1/report
// in both framings, a binary batch or one JSON report. wire.ReadReport
// owns the choice of framing and the decode; a binary body streams
// record by record — never buffered whole — into pooled scratch, so the
// steady-state cost per report is the scheduler hand-off, not the
// parser.
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
	s.metrics.ingestPoolGets.Inc()
	sc := s.ingestFree.Get()
	if sc == nil {
		s.metrics.ingestPoolMisses.Inc()
		sc = &ingestScratch{wire: wire.NewScratch()}
	}
	return sc
}

// noteIngest records one decoded report message in its codec's
// lpvs_ingest_* series.
func (s *Server) noteIngest(msg *wire.Message, decodeSec float64) {
	c := &s.metrics.ingestJSON
	if msg.Binary {
		c = &s.metrics.ingestWire
	}
	c.bytes.Add(float64(msg.Bytes))
	c.records.Add(float64(len(msg.Reports)))
	c.decode.Observe(decodeSec)
}

// maxBatchRecords resolves the configured per-batch record cap
// (negative = unbounded).
func (s *Server) maxBatchRecords() int {
	if s.maxBatch < 0 {
		return int(^uint(0) >> 1)
	}
	return s.maxBatch
}

// handleReport accepts one JSON device report or a binary batch — a
// fleet's round-trips per slot cut from N to 1. The body is decoded off
// the network first, then every record is staged under one lock
// acquisition: valid reports are accepted even when siblings fail. A
// JSON report answers its own outcome; a batch answers 200 with its
// rejections (NewBatchReportResponse). Responses are JSON in both
// framings.
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

	var aerr *apiError // the last record's outcome: a JSON report's answer
	s.mu.Lock()
	slot := s.slot
	for i := range msg.Reports {
		if aerr = s.acceptReportLocked(msg.Reports[i]); aerr != nil && msg.Binary {
			rejected = append(rejected, BatchReportResult{
				Index:    i,
				DeviceID: msg.Reports[i].DeviceID,
				Error:    &ErrorBody{Code: aerr.Code, Message: aerr.Message, Retryable: retryable(aerr.Status)},
			})
		}
	}
	s.mu.Unlock()
	switch {
	case msg.Binary:
		sc.results = rejected // the binary read drew sc; its rows keep their capacity
		WriteJSON(w, http.StatusOK, NewBatchReportResponse(slot, len(msg.Reports), rejected))
	case aerr != nil:
		aerr.write(w)
	default:
		WriteAppended(w, ReportResponse{Slot: slot, Accepted: true})
	}
}

// NewBatchReportResponse shapes the outcome of a batch of records.
// rejected lists the refused records in ascending Index order, each as
// Index, DeviceID, Error; it is the answer's only rows, so an
// all-accepted 10k-device batch answers with three integers instead of
// 10k echo objects. No rejections answer "results":null, whether
// rejected is nil or a reused empty slice.
func NewBatchReportResponse(slot, records int, rejected []BatchReportResult) BatchReportResponse {
	resp := BatchReportResponse{Slot: slot, Accepted: records - len(rejected), Rejected: len(rejected)}
	if len(rejected) > 0 {
		resp.Results = rejected
	}
	return resp
}
