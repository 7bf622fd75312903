package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"lpvs/internal/wire"
)

// This file is the binary report-ingest path (DESIGN.md §16). POST
// /v1/report negotiates the codec on Content-Type: the binary framing
// of internal/wire streams record by record off the request body —
// never buffered whole — into pooled decode scratch, so the
// steady-state cost per report is the scheduler hand-off, not the
// parser. JSON stays the compatible default on every other
// Content-Type.
//
// Pooling lifecycle and aliasing rules: an ingestScratch (decoder +
// record slice + result slice) is checked out per request and returned
// when the handler exits. The decoded ReportRequests live in the
// scratch slice and are handed to acceptReportLocked *by value* —
// every field the server retains (scheduler.Request, deviceState) is a
// copy, and interned ID strings are immutable — so reusing the slice
// on the next checkout can never mutate state already handed to the
// scheduler. The aliasing regression test pins this.

// DefaultMaxBatchRecords caps records per batch report. The body byte
// cap alone is not enough: a binary record is ~60 bytes, so a 16 MiB
// body could smuggle ~280k records past a byte-sized limit.
const DefaultMaxBatchRecords = 100_000

// ingestScratch is one pooled decode workspace.
type ingestScratch struct {
	dec     *wire.Decoder
	reqs    []ReportRequest
	results []BatchReportResult
}

// ingestFreeCap bounds the ingest free list: enough workspaces for the
// handful of binary batches a daemon decodes at once. A burst beyond it
// allocates fresh workspaces and drops them to the GC on return.
const ingestFreeCap = 8

// getScratch checks a workspace out of the ingest free list (LIFO, so
// the warmest decoder and intern table go out first), counting gets and
// misses for the lpvs_ingest_pool_* hit-rate telemetry. A plain bounded
// list rather than a sync.Pool: a workspace survives garbage
// collections, so its intern table and record slice are grown once, and
// a put is always met by the next get — a sync.Pool may drop either,
// which made the hit-rate telemetry unpinnable under the race detector.
func (s *Server) getScratch() *ingestScratch {
	s.ingestPoolGets.Add(1)
	var sc *ingestScratch
	s.ingestFreeMu.Lock()
	if n := len(s.ingestFree); n > 0 {
		sc, s.ingestFree[n-1] = s.ingestFree[n-1], nil
		s.ingestFree = s.ingestFree[:n-1]
	}
	s.ingestFreeMu.Unlock()
	if sc == nil {
		s.ingestPoolMisses.Add(1)
		sc = &ingestScratch{dec: wire.NewDecoder(nil)}
	}
	return sc
}

func (s *Server) putScratch(sc *ingestScratch) {
	sc.dec.Reset(nil)
	s.ingestFreeMu.Lock()
	if len(s.ingestFree) < ingestFreeCap {
		s.ingestFree = append(s.ingestFree, sc)
	}
	s.ingestFreeMu.Unlock()
}

// noteIngest records one decoded report payload in the codec-split
// counters (metric families and the uint64 status mirrors).
func (s *Server) noteIngest(codec string, bytes int64, records int, decodeSec float64) {
	switch codec {
	case "binary":
		s.ingestBytesWire.Add(uint64(bytes))
		s.ingestRecordsWire.Add(uint64(records))
	default:
		s.ingestBytesJSON.Add(uint64(bytes))
		s.ingestRecordsJSON.Add(uint64(records))
	}
	m := s.metrics
	m.ingestBytes.With(codec).Add(float64(bytes))
	m.ingestRecords.With(codec).Add(float64(records))
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

func errBatchTooLarge(count, cap int) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Code: CodeBatchTooLarge,
		Message: fmt.Sprintf("batch of %d records exceeds the %d-record cap", count, cap)}
}

// wireDecodeError classifies a binary decode failure: version skew is
// a 415 (the client's cue to fall back to JSON), framing corruption a
// 400, and a tripped body cap the same 413 the JSON path returns.
func wireDecodeError(err error) *apiError {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, wire.ErrVersion):
		return &apiError{Status: http.StatusUnsupportedMediaType, Code: CodeUnsupportedMedia,
			Message: "binary report: " + err.Error()}
	case errors.As(err, &tooBig):
		return &apiError{Status: http.StatusRequestEntityTooLarge, Code: CodePayloadTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	default:
		return errBadRequest("binary report: " + err.Error())
	}
}

// handleReportWire ingests a binary report message. Records are
// decoded streaming off the body into pooled scratch, then staged
// under one lock acquisition; the lock is never held while reading
// from the network. Responses stay JSON in both codecs.
func (s *Server) handleReportWire(w http.ResponseWriter, r *http.Request) {
	sc := s.getScratch()
	defer s.putScratch(sc)

	start := time.Now()
	sc.dec.Reset(r.Body)
	kind, count, err := sc.dec.Begin()
	if err != nil {
		wireDecodeError(err).write(w)
		return
	}
	if maxBatch := s.maxBatchRecords(); count > maxBatch {
		// Refused before a single record is read: the count is declared
		// in the header, so an oversized batch costs 10 bytes to reject.
		errBatchTooLarge(count, maxBatch).write(w)
		return
	}
	if cap(sc.reqs) < count {
		sc.reqs = make([]ReportRequest, count)
	}
	reqs := sc.reqs[:count]
	for i := range reqs {
		if err := sc.dec.Next(&reqs[i]); err != nil {
			wireDecodeError(err).write(w)
			return
		}
	}
	if err := sc.dec.Finish(); err != nil {
		wireDecodeError(err).write(w)
		return
	}
	s.noteIngest("binary", sc.dec.BytesRead(), count, time.Since(start).Seconds())

	if kind == wire.KindSingle {
		s.mu.Lock()
		defer s.mu.Unlock()
		if aerr := s.acceptReportLocked(reqs[0]); aerr != nil {
			aerr.write(w)
			return
		}
		writeJSON(w, http.StatusOK, ReportResponse{Slot: s.slot, Accepted: true})
		return
	}

	sc.results = sc.results[:0]
	s.mu.Lock()
	resp := BatchReportResponse{Slot: s.slot}
	for i := range reqs {
		if aerr := s.acceptReportLocked(reqs[i]); aerr != nil {
			resp.Rejected++
			sc.results = append(sc.results, BatchReportResult{
				Index:    i,
				DeviceID: reqs[i].DeviceID,
				Error:    &ErrorBody{Code: aerr.Code, Message: aerr.Message, Retryable: retryable(aerr.Status)},
			})
		} else {
			resp.Accepted++
		}
	}
	s.mu.Unlock()
	// Rejected-only results: an all-accepted 10k-device batch answers
	// with three integers instead of 10k echo objects.
	resp.Results = sc.results
	writeJSON(w, http.StatusOK, resp)
}
