package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"lpvs/internal/wire"
)

// FuzzReportHandler throws arbitrary JSON bodies at the report endpoint:
// the daemon must answer 200 or 4xx, never panic, and must only ever
// register devices whose reports validated.
func FuzzReportHandler(f *testing.F) {
	good, err := json.Marshal(validReport("dev-1"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"device_id":"x","display_type":"LCD"}`))
	f.Add([]byte(`{"device_id":"x","display_type":"OLED","width":-5}`))
	f.Add([]byte(`{broken`))
	f.Add(append(append([]byte("["), good...), ']')) // a JSON array
	f.Add([]byte(``))

	srv, err := New(Config{Stream: testStream(f), ServerStreams: -1, Lambda: 1})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/report", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		code := rec.Code
		if code != 200 && (code < 400 || code >= 500) {
			t.Fatalf("unexpected status %d for body %q", code, body)
		}
	})
}

// FuzzWireReportHandler throws arbitrary bytes at the report endpoint
// under the binary content type: the daemon must fail closed — 200 for
// well-formed frames of valid reports, 4xx for everything else, never
// a panic or a 5xx. The decoder streams straight off the request body,
// so this also exercises truncation mid-record.
func FuzzWireReportHandler(f *testing.F) {
	batch, err := wire.AppendBatch(nil, []ReportRequest{validReport("dev-a"), validReport("dev-b")})
	if err != nil {
		f.Fatal(err)
	}
	one, err := wire.AppendBatch(nil, []ReportRequest{validReport("dev-1")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(append(append(one[:5:5], 1), one[10:]...)) // a kind-1 frame
	f.Add(batch[:len(batch)-3])                      // truncated tail
	f.Add(batch[:10])                                // header only
	f.Add([]byte("LPWR"))
	f.Add([]byte(`{"device_id":"x"}`)) // JSON under the binary content type
	f.Add([]byte(``))

	srv, err := New(Config{Stream: testStream(f), ServerStreams: -1, Lambda: 1, MaxBatchRecords: 64})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/report", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		code := rec.Code
		if code != 200 && (code < 400 || code >= 500) {
			t.Fatalf("unexpected status %d for body %q", code, body)
		}
	})
}
