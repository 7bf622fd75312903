package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"lpvs/internal/server"
	"lpvs/internal/testenv"
	"lpvs/internal/wire"
)

// The Caller is the shared transport under both the device Client and
// the router's shard-forwarding client; these tests pin its public
// surface directly.

func TestCallerEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"unknown_device","message":"nope","retryable":false}}`))
	}))
	defer ts.Close()

	c, err := NewCaller(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{}
	err = c.GetJSON("/v1/decision?device=x", &out)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != server.CodeUnknownDevice {
		t.Fatalf("bad envelope decode: %+v", apiErr)
	}
}

func TestCallerRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c, err := NewCaller(ts.URL, WithRetries(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.PostJSON("/x", map[string]int{}, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || calls.Load() != 3 {
		t.Fatalf("ok=%v calls=%d", out.OK, calls.Load())
	}
}

func TestCallerBreakerShared(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, err := NewCaller(ts.URL, WithCircuitBreaker(2, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	c.GetJSON("/a", nil)
	c.GetJSON("/a", nil) // second failure opens the circuit
	err = c.GetJSON("/a", nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
}

func TestCallerNilOut(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"whatever": 1}`))
	}))
	defer ts.Close()
	c, err := NewCaller(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.GetJSON("/x", nil); err != nil {
		t.Fatalf("nil out should discard the body: %v", err)
	}
}

func TestWithHTTPClientOption(t *testing.T) {
	used := false
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		used = true
		return nil, errors.New("sentinel")
	})}
	c, err := NewCaller("http://example.invalid", WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.GetJSON("/x", nil); err == nil {
		t.Fatal("want transport error")
	}
	if !used {
		t.Fatal("WithHTTPClient transport not used")
	}
}

// TestCallerTimeout holds the Caller to its http.Client's Timeout, which
// it turns into a deadline on each request: a daemon that stalls before
// its headers, or after them in the middle of the body, fails the call
// with a timeout instead of holding it.
func TestCallerTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/body" {
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, `{"ok":`)
			w.(http.Flusher).Flush()
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	c, err := NewCaller(ts.URL, WithHTTPClient(&http.Client{Timeout: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/headers", "/body"} {
		done := make(chan error, 1)
		go func() {
			var out struct {
				OK bool `json:"ok"`
			}
			done <- c.GetJSON(path, &out)
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: error %v, want a deadline exceeded", path, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the call outlived the client's 50ms Timeout by 5s", path)
		}
	}
}

// TestCallerRedirectIsAnError: the Caller follows no redirect. A 3xx is
// an answer like any other non-200, an *APIError, and the target is not
// requested.
func TestCallerRedirectIsAnError(t *testing.T) {
	var followed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/there" {
			followed.Store(true)
		}
		http.Redirect(w, r, "/there", http.StatusFound)
	}))
	defer ts.Close()
	c, err := NewCaller(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := c.GetJSON("/here", nil); !errors.As(err, &apiErr) || apiErr.Status != http.StatusFound {
		t.Fatalf("error %v, want an *APIError with status 302", err)
	}
	if followed.Load() {
		t.Fatal("the redirect was followed")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// stubTransport answers every request without a socket: with err when
// set, else with an empty response of the given status.
type stubTransport struct {
	status int
	err    error
}

func (s stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	if s.err != nil {
		return nil, s.err
	}
	return &http.Response{StatusCode: s.status, Body: http.NoBody, Header: http.Header{}}, nil
}

// TestCallerErrorLabels pins the "<METHOD> <path>" label of the two
// error strings that carry it, for all three verbs of the Caller.
func TestCallerErrorLabels(t *testing.T) {
	down, err := NewCaller("http://edge.test",
		WithHTTPClient(&http.Client{Transport: stubTransport{err: errors.New("boom")}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		call func() error
		want string
	}{
		{func() error { return down.GetJSON("/v1/decision?device=d1", nil) },
			`client: GET /v1/decision?device=d1: Get "http://edge.test/v1/decision?device=d1": boom`},
		{func() error { return down.PostJSON("/v1/tick", struct{}{}, nil) },
			`client: POST /v1/tick: Post "http://edge.test/v1/tick": boom`},
		{func() error { return down.PostRaw("/v1/report", "application/x-lpvs-report", []byte{1}, nil) },
			`client: POST /v1/report: Post "http://edge.test/v1/report": boom`},
	} {
		if err := tc.call(); err == nil || err.Error() != tc.want {
			t.Errorf("error %q, want %q", err, tc.want)
		}
	}

	shedding, err := NewCaller("http://edge.test",
		WithHTTPClient(&http.Client{Transport: stubTransport{status: http.StatusServiceUnavailable}}),
		WithRetries(5, time.Millisecond), WithRetryBudget(1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	const want = "client: GET /v1/status: retry budget exhausted: client: edge returned 503 (unknown): status 503"
	if err := shedding.GetJSON("/v1/status", nil); err == nil || err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestCallerAllocsNoLabelPerCall guards the success path of the Caller:
// going through GetJSON costs no allocation beyond the request itself —
// the error label is only built when an error is.
func TestCallerAllocsNoLabelPerCall(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hc := &http.Client{Transport: stubTransport{status: http.StatusOK}}
	c, err := NewCaller("http://edge.test", WithHTTPClient(hc))
	if err != nil {
		t.Fatal(err)
	}
	const path = "/v1/decision?device=d1"
	bare := testing.AllocsPerRun(100, func() {
		resp, err := hc.Get(c.Base() + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := decode(resp, nil); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})
	through := testing.AllocsPerRun(100, func() {
		if err := c.GetJSON(path, nil); err != nil {
			t.Fatal(err)
		}
	})
	if through > bare {
		t.Fatalf("GetJSON allocates %.0f per call, the bare request %.0f", through, bare)
	}
}

// cannedTransport answers every request with the same 200 response and
// body, allocating nothing itself: what a call through it allocates is
// the Caller's own.
type cannedTransport struct {
	resp http.Response
	body bytes.Reader
	data []byte
}

func newCannedTransport(body string) *cannedTransport {
	ct := &cannedTransport{data: []byte(body)}
	ct.resp = http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(&ct.body)}
	return ct
}

func (ct *cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	ct.body.Reset(ct.data)
	return &ct.resp, nil
}

// TestCallerOwnAllocs pins what the Caller itself allocates per call,
// over a RoundTripper that allocates nothing, with the 200 body relayed
// to an io.Writer (decode's share is TestDecodeReplyAllocs'): nothing
// for a GET and a POST's own body reader, 2, for a POST. The request
// block is recycled, every header is shared and GetBody is bound once
// per block; the body reader is not part of the block, since the
// Transport may still read it after the response (TestCallerBlockReuse).
// A block of its own per request, a header map and a GetBody closure
// per POST cost 1 and 4; through http.Client.Do and a request built in
// parts the same calls cost 6 and 13.
func TestCallerOwnAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := NewCaller("http://edge.test",
		WithHTTPClient(&http.Client{Transport: newCannedTransport("{\"slot\":7,\"accepted\":true}\n")}))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"device_id":"d1"}`)
	for _, row := range []struct {
		name  string
		bound float64
		call  func() error
	}{
		{"GET", 0, func() error { return c.GetJSON("/v1/decision?device=d1", io.Discard) }},
		{"POST JSON", 2, func() error { return c.PostRaw("/v1/report", "application/json", body, io.Discard) }},
		{"POST binary", 2, func() error { return c.PostRaw("/v1/report", wire.ContentType, body, io.Discard) }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := row.call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > row.bound {
			t.Errorf("%s: the Caller allocates %.0f per call, want at most %.0f", row.name, allocs, row.bound)
		}
	}
}

// TestCallerLargePostAllocs pins what a binary batch POST larger than
// chunkedAbove costs per round trip, both ends of a stock http.Transport
// and an httptest server that reads the body counted: such a body goes
// out chunked, so the Transport hands the whole of it to its write
// buffer's Write, and no 32 KiB copy buffer is allocated per request as
// net.TCPConn.ReadFrom does for a body sent with a Content-Length
// (DESIGN.md §18). A POST of chunkedAbove bytes or fewer keeps its
// Content-Length.
func TestCallerLargePostAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var length atomic.Int64
	var te atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length.Store(r.ContentLength)
		te.Store(strings.Join(r.TransferEncoding, ","))
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}))
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c, err := NewCaller(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		size         int
		wantLength   int64
		wantEncoding string
	}{
		{0, 0, ""},
		{chunkedAbove, chunkedAbove, ""},
		{chunkedAbove + 1, -1, "chunked"},
	} {
		if err := c.PostRaw("/v1/report", wire.ContentType, make([]byte, row.size), nil); err != nil {
			t.Fatal(err)
		}
		if got, enc := length.Load(), te.Load(); got != row.wantLength || enc != row.wantEncoding {
			t.Errorf("a %d-byte POST arrives with length %d, transfer encoding %q; want %d, %q",
				row.size, got, enc, row.wantLength, row.wantEncoding)
		}
	}

	body := make([]byte, 64<<10)
	const requests, bound = 200, 16 << 10
	for i := 0; i < 20; i++ { // connection, pools
		if err := c.PostRaw("/v1/report", wire.ContentType, body, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if err := c.PostRaw("/v1/report", wire.ContentType, body, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("a 64 KiB POST allocates %.1f objects, %.0f B per round trip",
		float64(after.Mallocs-before.Mallocs)/requests, perTrip)
	if perTrip >= bound {
		t.Errorf("a 64 KiB POST allocates %.0f B per round trip, want under %d", perTrip, bound)
	}
}

// hotReply is one body of a reply the daemon append-encodes (DESIGN.md
// §18), json.Marshal's bytes being the same layout, with the value it
// was written from.
type hotReply struct {
	name string
	want any
	body []byte
}

func hotReplies(t *testing.T) []hotReply {
	t.Helper()
	rows := []hotReply{
		{name: "decision", want: server.DecisionResponse{DeviceID: "dev-001", Slot: 7, Transform: true, Gamma: 0.31}},
		{name: "chunk", want: server.ChunkResponse{
			Index: 3, DurationSec: 2, BitrateKbps: 4500, Transformed: true, MeanLuma: 0.25, PeakLuma: 0.9,
			MeanR: 0.2, MeanG: 0.3, MeanB: 0.1, BrightnessScale: 0.85, PlainPowerW: 1.234,
		}},
		{name: "acknowledgement", want: server.ReportResponse{Slot: 7, Accepted: true}},
	}
	for i := range rows {
		body, err := json.Marshal(rows[i].want)
		if err != nil {
			t.Fatal(err)
		}
		rows[i].body = append(body, '\n')
	}
	return rows
}

// TestDecodeReplyAllocs guards the read half of a hot reply: decode
// reads it in its append layout, so a decision costs one allocation
// (its DeviceID) and a chunk or an acknowledgement none, where
// json.Unmarshal cost 5, 4 and 4.
func TestDecodeReplyAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bounds := map[string]float64{"decision": 1, "chunk": 0, "acknowledgement": 0}
	rd := bytes.NewReader(nil)
	resp := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(rd)}
	for _, row := range hotReplies(t) {
		out := reflect.New(reflect.TypeOf(row.want))
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(row.body)
			if err := decode(resp, out.Interface()); err != nil {
				t.Fatal(err)
			}
		})
		if got := out.Elem().Interface(); got != row.want {
			t.Fatalf("%s: decoded %+v, want %+v", row.name, got, row.want)
		}
		if allocs > bounds[row.name] {
			t.Errorf("%s: decode allocates %.0f, want at most %.0f", row.name, allocs, bounds[row.name])
		}
	}
}

// TestDecodeReplyFallback holds decode to json.Unmarshal on hot replies
// the layout reader declines — escaped, reordered, with other numbers
// or trailing bytes — so it returns exactly json.Unmarshal's value and
// error.
func TestDecodeReplyFallback(t *testing.T) {
	for _, row := range hotReplies(t) {
		for _, body := range []string{
			string(row.body),
			strings.Replace(string(row.body), `"dev-001"`, `"dev\u002d001"`, 1),
			strings.Replace(string(row.body), `{"`, `{ "`, 1),
			strings.Replace(string(row.body), `:7,`, `:+7,`, 1),
			strings.Replace(string(row.body), `:7,`, `:7.0,`, 1),
			strings.Replace(string(row.body), `0.`, `Inf`, 1),
			strings.Replace(string(row.body), `true`, `null`, 1),
			strings.TrimSuffix(string(row.body), "\n") + "x",
			`{"slot":7}`,
		} {
			typ := reflect.TypeOf(row.want)
			got, want := reflect.New(typ), reflect.New(typ)
			err := decode(&http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(body))}, got.Interface())
			wantErr := json.Unmarshal([]byte(body), want.Interface())
			if wantErr != nil && (err == nil || err.Error() != "client: decode: "+wantErr.Error()) ||
				wantErr == nil && err != nil {
				t.Errorf("%s %q: decode error %v, json.Unmarshal %v", row.name, body, err, wantErr)
			}
			if !testenv.BitEqual(got.Elem().Interface(), want.Elem().Interface()) {
				t.Errorf("%s %q: decoded %+v, json.Unmarshal %+v", row.name, body, got.Elem(), want.Elem())
			}
		}
	}
}

// TestCallerRequestMatchesNewRequest pins the request the Caller builds
// on its pre-parsed base URL to the one http.Client.Get and Post built
// from base+path: same URL on the wire, Host, ContentLength, headers,
// and a GetBody that replays the body — what lets the Transport re-send
// a POST when a kept-alive connection turns out dead. Rows the fast
// path refuses (an escape, a fragment, a byte EscapedPath would rewrite,
// a base that is more than scheme://host/prefix) must agree as well.
// The one intended difference: a POST whose body is longer than
// chunkedAbove has ContentLength -1 and goes out chunked, on either
// path, where http.NewRequest gives it its length.
func TestCallerRequestMatchesNewRequest(t *testing.T) {
	if !plainPath("/v1/chunk?device=d1&index=3") || plainPath("/v1/a!b") {
		t.Fatal("plainPath sends the hot paths through http.NewRequest, or nothing: the table below compares nothing")
	}
	read := func(rc io.ReadCloser) string {
		if rc == nil {
			return "<nil>"
		}
		b, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	large := bytes.Repeat([]byte("b"), chunkedAbove+1)
	for _, base := range []string{
		"http://edge.test:8080", "http://edge.test/prefix", "http://edge.test/prefix/",
		"http://edge.test:", "http://user:pw@edge.test", "http://[::1]:8080",
		"http://edge.test?x=1", "http://edge.test?", "http://edge.test#", "http://edge.test/a%20b",
	} {
		c, err := NewCaller(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{
			"/v1/status", "/v1/decision?device=d1", "/v1/chunk?device=d1&index=3", "/v1/status?",
			"/v1/decision?device=a%20b", "/v1/decision?device=a b&x=[1]", "/v1/x#frag",
			"/v1/a!b", "/v1/a b", "/v1/a%2Fb", "/v1/\x01", "v1/status", "",
		} {
			for _, rq := range []request{
				{method: "GET", path: path},
				{method: "POST", path: path, contentType: "application/json", body: []byte(`{"a":1}`)},
				{method: "POST", path: path, contentType: "application/x-lpvs-report"},
				{method: "POST", path: path, contentType: "application/x-lpvs-report", body: large},
			} {
				want, wantErr := http.NewRequest(rq.method, base+path, nil)
				if rq.method == "POST" {
					want, wantErr = http.NewRequest(rq.method, base+path, bytes.NewReader(rq.body))
				}
				if wantErr == nil && len(rq.body) > chunkedAbove {
					want.ContentLength, want.TransferEncoding = -1, []string{"chunked"}
				}
				got, _, err := c.newRequest(rq)
				if (err != nil) != (wantErr != nil) {
					t.Errorf("%s %s%s: error %v, http.NewRequest's %v", rq.method, base, path, err, wantErr)
					continue
				}
				if err != nil {
					continue
				}
				want.Header.Set("Accept-Encoding", "identity")
				want.Header.Set("User-Agent", "")
				if rq.method == "POST" {
					want.Header.Set("Content-Type", rq.contentType)
				}
				if got.Method != want.Method || got.URL.String() != want.URL.String() ||
					got.URL.RequestURI() != want.URL.RequestURI() || got.Host != want.Host ||
					got.ContentLength != want.ContentLength || !reflect.DeepEqual(got.TransferEncoding, want.TransferEncoding) ||
					!reflect.DeepEqual(got.Header, want.Header) ||
					got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor {
					t.Errorf("%s %s%s: built\n %s %q host %q length %d %v %v, http.NewRequest\n %s %q host %q length %d %v %v",
						rq.method, base, path,
						got.Method, got.URL, got.Host, got.ContentLength, got.TransferEncoding, got.Header,
						want.Method, want.URL, want.Host, want.ContentLength, want.TransferEncoding, want.Header)
				}
				if (got.Body == http.NoBody) != (want.Body == http.NoBody) || read(got.Body) != read(want.Body) {
					t.Errorf("%s %s%s: body differs from http.NewRequest's", rq.method, base, path)
				}
				if (got.GetBody == nil) != (want.GetBody == nil) {
					t.Errorf("%s %s%s: GetBody set %v, http.NewRequest's %v", rq.method, base, path, got.GetBody != nil, want.GetBody != nil)
					continue
				}
				if got.GetBody == nil {
					continue
				}
				for replay := 0; replay < 2; replay++ { // after Body was drained, and again
					rc, err := got.GetBody()
					if err != nil {
						t.Fatal(err)
					}
					if b := read(rc); b != string(rq.body) || (rc == http.NoBody) != (len(rq.body) == 0) {
						t.Errorf("%s %s%s: GetBody replays %q, want %q", rq.method, base, path, b, rq.body)
					}
				}
			}
		}
	}
}

// TestCaller200Body pins what the Caller does with a 200 body. It must
// be one JSON value, trailing whitespace allowed: the json.Decoder the
// Caller used to read with ignored whatever followed the first value,
// json.Unmarshal over the whole body does not, and since the daemon and
// the router send exactly one value and a newline the strict reading is
// the one kept. An io.Writer out receives the bytes undecoded.
func TestCaller200Body(t *testing.T) {
	var body string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer ts.Close()
	c, err := NewCaller(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{"{\"ok\":true}\n", true},
		{"{\"ok\":true}", true},
		{" {\"ok\":true} \r\n\t", true},
		{"{\"ok\":true}\n{\"ok\":false}\n", false},
		{"{\"ok\":true}]", false},
		{"", false},
	} {
		body = tc.body
		var out struct {
			OK bool `json:"ok"`
		}
		err := c.GetJSON("/x", &out)
		if (err == nil) != tc.ok || (tc.ok && !out.OK) {
			t.Errorf("body %q: decoded %+v with error %v, want ok=%v", tc.body, out, err, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "client: decode: ") {
			t.Errorf("body %q: error %q, want a decode error", tc.body, err)
		}
		var raw bytes.Buffer
		if err := c.PostRaw("/x", "application/json", nil, &raw); err != nil || raw.String() != tc.body {
			t.Errorf("body %q: relayed %q with error %v", tc.body, raw.String(), err)
		}
	}
}

// TestCallerRequestHead pins the request head the Caller puts on the
// wire through a stock http.Transport, byte for byte: a raw listener
// records what arrives. Every request carries "Accept-Encoding:
// identity" — no gzip asked for — and no User-Agent line; a POST adds
// its Content-Length and Content-Type, an empty POST included. Two
// rows take the paths that build their header apart: a path
// http.NewRequest parses, and a Content-Type with no shared header.
// The last two rows are POSTs longer than chunkedAbove, on each path:
// "Transfer-Encoding: chunked" takes the place of the Content-Length,
// and the body arrives as one chunk — the Transport wrote it in one
// Write, with no copy buffer between.
func TestCallerRequestHead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	heads := make(chan string, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveHeads(conn, heads)
		}
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c, err := NewCaller("http://"+ln.Addr().String(), WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	host := "Host: " + ln.Addr().String() + "\r\n"
	large := strings.Repeat("x", chunkedAbove+1)
	for _, row := range []struct {
		call func() error
		want string
	}{
		{func() error { return c.GetJSON("/v1/decision?device=d1", nil) },
			"GET /v1/decision?device=d1 HTTP/1.1\r\n" + host +
				"Accept-Encoding: identity\r\n\r\n"},
		{func() error { return c.PostRaw("/v1/report", "application/json", []byte(`{"device_id":"d1"}`), nil) },
			"POST /v1/report HTTP/1.1\r\n" + host + "Content-Length: 18\r\n" +
				"Accept-Encoding: identity\r\nContent-Type: application/json\r\n\r\n" + `{"device_id":"d1"}`},
		{func() error { return c.PostRaw("/v1/report", wire.ContentType, []byte("LPVS\x01"), nil) },
			"POST /v1/report HTTP/1.1\r\n" + host + "Content-Length: 5\r\n" +
				"Accept-Encoding: identity\r\nContent-Type: application/x-lpvs-report\r\n\r\nLPVS\x01"},
		{func() error { return c.PostRaw("/v1/tick", "application/json", nil, nil) },
			"POST /v1/tick HTTP/1.1\r\n" + host + "Content-Length: 0\r\n" +
				"Accept-Encoding: identity\r\nContent-Type: application/json\r\n\r\n"},
		{func() error { return c.GetJSON("/v1/decision?device=a%20b", nil) },
			"GET /v1/decision?device=a%20b HTTP/1.1\r\n" + host +
				"Accept-Encoding: identity\r\n\r\n"},
		{func() error { return c.PostRaw("/v1/x", "text/plain", []byte("hi"), nil) },
			"POST /v1/x HTTP/1.1\r\n" + host + "Content-Length: 2\r\n" +
				"Accept-Encoding: identity\r\nContent-Type: text/plain\r\n\r\nhi"},
		{func() error { return c.PostRaw("/v1/report", wire.ContentType, []byte(large), nil) },
			"POST /v1/report HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n" +
				"Accept-Encoding: identity\r\nContent-Type: application/x-lpvs-report\r\n\r\n" +
				"1001\r\n" + large + "\r\n0\r\n\r\n"},
		{func() error { return c.PostRaw("/v1/a%20b", "application/json", []byte(large), nil) },
			"POST /v1/a%20b HTTP/1.1\r\n" + host + "Transfer-Encoding: chunked\r\n" +
				"Accept-Encoding: identity\r\nContent-Type: application/json\r\n\r\n" +
				"1001\r\n" + large + "\r\n0\r\n\r\n"},
	} {
		if err := row.call(); err != nil {
			t.Fatal(err)
		}
		if got := <-heads; got != row.want {
			t.Errorf("on the wire:\n%q\nwant\n%q", got, row.want)
		}
	}
}

// serveHeads answers every request on conn with an empty 200 and sends
// its head and body, as they arrived, to heads: a chunked body with its
// framing.
func serveHeads(conn net.Conn, heads chan<- string) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		var head strings.Builder
		length, chunked := 0, false
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			head.WriteString(line)
			if n, ok := strings.CutPrefix(line, "Content-Length: "); ok {
				length, _ = strconv.Atoi(strings.TrimSpace(n))
			}
			chunked = chunked || line == "Transfer-Encoding: chunked\r\n"
			if line == "\r\n" {
				break
			}
		}
		if chunked {
			if !readChunks(br, &head) {
				return
			}
			heads <- head.String()
		} else {
			body := make([]byte, length)
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
			heads <- head.String() + string(body)
		}
		if _, err := io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"); err != nil {
			return
		}
	}
}

// readChunks copies a chunked body from br to w as it arrived, size
// lines, data and an empty trailer included, and reports whether the
// body ended well-formed.
func readChunks(br *bufio.Reader, w *strings.Builder) bool {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return false
		}
		w.WriteString(line)
		size, err := strconv.ParseInt(strings.TrimSuffix(line, "\r\n"), 16, 32)
		if err != nil {
			return false
		}
		data := make([]byte, size+2)
		if _, err := io.ReadFull(br, data); err != nil || !bytes.HasSuffix(data, []byte("\r\n")) {
			return false
		}
		w.Write(data)
		if size == 0 {
			return true
		}
	}
}

// TestCallerBlockReuse holds the Caller's recycling of request blocks
// to the http.RoundTripper contract. (a) After a transport error the
// Transport may keep the request: later calls must not touch it. (b)
// Eight goroutines share one Caller while the kept-alive connections
// under them die — every connection's third request fails before a
// byte is written, which makes http.Transport replay it onto a fresh
// connection, a POST through GetBody — and every answer must echo the
// path and body its own request was sent with. Run under the race
// detector (make race), (b) also checks that no recycled block is
// written while the Transport still reads it. (b) also holds a POST to
// one write: were its head flushed on its own, the failing write could
// be its body's, after which nothing is replayed. (c) The server sheds
// large POSTs with a 429 before reading their bodies, as the route
// shell's admission gate does, so the Transport is still writing a body
// when the Caller has its answer and releases the block; the echoed
// requests sent meanwhile must be intact, and under the race detector
// nothing the Transport still reads may be reused.
func TestCallerBlockReuse(t *testing.T) {
	t.Run("kept after a transport error", func(t *testing.T) {
		var kept *http.Request
		var wantURL string
		var wantHeader http.Header
		canned := newCannedTransport("{}\n")
		c, err := NewCaller("http://edge.test", WithHTTPClient(&http.Client{Transport: roundTripFunc(
			func(r *http.Request) (*http.Response, error) {
				if kept == nil {
					kept, wantURL, wantHeader = r, r.URL.String(), r.Header.Clone()
					return nil, errors.New("connection reset")
				}
				return canned.RoundTrip(r)
			})}))
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(`{"device_id":"kept"}`)
		if err := c.PostRaw("/v1/report?kept=1", "application/json", body, nil); err == nil {
			t.Fatal("want the transport error")
		}
		for i := 0; i < 10; i++ {
			if err := c.PostRaw("/v1/x", wire.ContentType, []byte{byte(i)}, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := c.GetJSON(fmt.Sprintf("/v1/decision?device=d%d", i), io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if kept.Method != "POST" || kept.URL == nil || kept.URL.String() != wantURL ||
			!reflect.DeepEqual(kept.Header, wantHeader) || kept.Body == nil || kept.GetBody == nil {
			t.Fatalf("the kept request changed: %s %v %v", kept.Method, kept.URL, kept.Header)
		}
		if got, err := io.ReadAll(kept.Body); err != nil || !bytes.Equal(got, body) {
			t.Errorf("the kept request's body reads %q, %v; want %q", got, err, body)
		}
		rc, err := kept.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, body) {
			t.Errorf("the kept request's GetBody replays %q, %v; want %q", got, err, body)
		}
	})

	t.Run("replayed onto fresh connections", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, r.URL.RequestURI()+"\n")
			io.Copy(w, r.Body)
		}))
		defer ts.Close()
		var dead atomic.Int64
		tr := &http.Transport{MaxIdleConnsPerHost: 8,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return &dyingConn{Conn: conn, dead: &dead}, nil
			}}
		defer tr.CloseIdleConnections()
		c, err := NewCaller(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))
		if err != nil {
			t.Fatal(err)
		}
		const goroutines, calls = 8, 60
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got bytes.Buffer
				for i := 0; i < calls; i++ {
					path := fmt.Sprintf("/echo/%d?i=%d", g, i)
					var body []byte
					var err error
					got.Reset()
					if i%3 == 0 {
						err = c.GetJSON(path, &got)
					} else {
						body = fmt.Appendf(nil, `{"g":%d,"i":%d,"pad":%q}`, g, i, strings.Repeat("x", i))
						err = c.PostRaw(path, "application/json", body, &got)
					}
					if want := path + "\n" + string(body); err != nil || got.String() != want {
						errs <- fmt.Errorf("goroutine %d call %d: echoed %q, %v; want %q", g, i, got.String(), err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if dead.Load() == 0 {
			t.Fatal("no connection died: nothing was replayed")
		}
		t.Logf("%d requests replayed onto a fresh connection", dead.Load())
	})

	t.Run("shed before its body is read", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shed" {
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			io.WriteString(w, r.URL.RequestURI()+"\n")
			io.Copy(w, r.Body)
		}))
		defer ts.Close()
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		c, err := NewCaller(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))
		if err != nil {
			t.Fatal(err)
		}
		// Larger than a loopback connection's socket buffers, so the write
		// of a shed body blocks until the server closes the connection.
		large := bytes.Repeat([]byte("s"), 16<<20)
		const goroutines, calls = 4, 12
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got bytes.Buffer
				for i := 0; i < calls; i++ {
					if i%4 == 0 {
						var apiErr *APIError
						if err := c.PostRaw("/shed", "application/json", large, nil); !errors.As(err, &apiErr) ||
							apiErr.Status != http.StatusTooManyRequests {
							errs <- fmt.Errorf("goroutine %d call %d: shed POST returned %v, want a 429", g, i, err)
							return
						}
						continue
					}
					path := fmt.Sprintf("/echo/%d?i=%d", g, i)
					body := fmt.Appendf(nil, `{"g":%d,"i":%d}`, g, i)
					got.Reset()
					err := c.PostRaw(path, "application/json", body, &got)
					if want := path + "\n" + string(body); err != nil || got.String() != want {
						errs <- fmt.Errorf("goroutine %d call %d: echoed %q, %v; want %q", g, i, got.String(), err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// dyingConn fails its third write without writing a byte, as a write to
// a kept-alive connection the server has since closed does, and counts
// the failures in dead.
type dyingConn struct {
	net.Conn
	writes atomic.Int32
	dead   *atomic.Int64
}

func (c *dyingConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == 3 {
		c.Conn.Close()
		c.dead.Add(1)
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// TestCallerBodyReadError: a 200 whose body breaks mid-read fails the
// call whether its bytes are decoded, relayed or discarded (a nil out,
// as the router's PostJSON to /v1/shard/map passes).
func TestCallerBodyReadError(t *testing.T) {
	broken := errors.New("connection reset mid-body")
	c, err := NewCaller("http://edge.test", WithHTTPClient(&http.Client{Transport: roundTripFunc(
		func(*http.Request) (*http.Response, error) {
			body := io.MultiReader(strings.NewReader(`{"ok":`), iotest.ErrReader(broken))
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(body)}, nil
		})}))
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []any{nil, &struct {
		OK bool `json:"ok"`
	}{}, io.Discard} {
		if err := c.PostJSON("/v1/shard/map", struct{}{}, out); !errors.Is(err, broken) ||
			!strings.HasPrefix(err.Error(), "client: read body: ") {
			t.Errorf("out %T: error %v, want a read body error", out, err)
		}
	}
}
