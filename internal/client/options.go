package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"lpvs/internal/bufpool"
	"lpvs/internal/server"
	"lpvs/internal/wire"
)

// This file is the shared transport option set and the Caller it
// configures. The device Client and the router's shard-forwarding
// client (internal/router) are both built on one Caller per base URL,
// so retries, the circuit breaker, the retry budget and Retry-After
// handling behave identically on the public edge and on the
// node-to-node /v1/shard/* surface.

// Options is the resolved transport/resilience configuration. Build it
// by applying Option funcs; the zero value means "no retries, no
// breaker, no budget, http.DefaultTransport".
type Options struct {
	// HTTP supplies the Transport and the Timeout (nil =
	// http.DefaultClient); see WithHTTPClient.
	HTTP *http.Client
	// Retries and Backoff configure WithRetries.
	Retries int
	Backoff time.Duration
	// BreakerThreshold and BreakerCooldown configure WithCircuitBreaker
	// (threshold 0 = no breaker).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// BudgetMax and BudgetRatio configure WithRetryBudget (max 0 = no
	// budget).
	BudgetMax   float64
	BudgetRatio float64
}

// Option customises a Client or a Caller.
type Option func(*Options)

// WithHTTPClient sets the *http.Client whose Transport (nil:
// http.DefaultTransport) and Timeout the Caller uses; nil keeps
// http.DefaultClient. Only those two fields are used: the Caller hands
// each request to the Transport itself, not through Client.Do, so it
// follows no redirect (a 3xx is an *APIError like any non-200), keeps
// no cookie Jar, and sends no Authorization for credentials in the base
// URL. It talks only to LPVS daemons and routers, which use none of
// these. A positive Timeout is a deadline on each attempt's context,
// over the same span as Client.Timeout: until the response body is read.
// Every request carries "Accept-Encoding: identity" and an empty
// User-Agent, which net/http sends as no User-Agent line. The Transport
// must keep the http.RoundTripper contract: it must not modify the
// request, whose Header is shared, nor keep it once the response body is
// closed, when the Caller recycles it. The request's body is its own and
// never recycled, so it may be read and closed after that.
func WithHTTPClient(h *http.Client) Option {
	return func(o *Options) { o.HTTP = h }
}

// WithRetries makes the caller retry transport errors, 5xx responses
// and shed (429) requests up to n extra attempts with exponential
// backoff starting at initial; a server Retry-After hint overrides the
// computed backoff for that attempt. Other 4xx responses are never
// retried — they mean the request is wrong.
func WithRetries(n int, initial time.Duration) Option {
	return func(o *Options) {
		if n < 0 {
			n = 0
		}
		if initial <= 0 {
			initial = 50 * time.Millisecond
		}
		o.Retries = n
		o.Backoff = initial
	}
}

// WithCircuitBreaker opens the circuit after `threshold` consecutive
// failures (transport errors, 5xx, 429): while open, calls fail
// immediately with ErrCircuitOpen instead of touching the network;
// after `cooldown` one probe is admitted and its outcome closes or
// re-opens the circuit. Any response from a live server — including
// 4xx — counts as a success for the breaker.
func WithCircuitBreaker(threshold int, cooldown time.Duration) Option {
	return func(o *Options) {
		if threshold < 1 {
			threshold = 1
		}
		if cooldown <= 0 {
			cooldown = time.Second
		}
		o.BreakerThreshold = threshold
		o.BreakerCooldown = cooldown
	}
}

// WithRetryBudget bounds retry amplification: each retry spends one
// token from a bucket of `max`, refilled by `ratio` tokens per
// successful request. When the bucket is empty, failures surface
// immediately instead of multiplying load on a struggling edge.
func WithRetryBudget(max, ratio float64) Option {
	return func(o *Options) {
		if max < 1 {
			max = 1
		}
		if ratio <= 0 {
			ratio = 0.1
		}
		o.BudgetMax = max
		o.BudgetRatio = ratio
	}
}

// Caller is a resilient HTTP caller bound to one base URL: retries
// with exponential backoff and Retry-After honouring, an optional
// circuit breaker, and an optional retry budget. Every non-200
// response surfaces as a typed *APIError carrying the v1 envelope.
type Caller struct {
	base string
	// baseURL is base parsed once, for newRequest to build on; nil when
	// base is not a plain scheme://host[/prefix], and every request then
	// goes through http.NewRequest.
	baseURL *url.URL
	http    *http.Client

	retries int
	backoff time.Duration
	breaker *breaker     // nil = no circuit breaking
	budget  *retryBudget // nil = unbounded retries (up to `retries`)
}

// NewCaller builds a caller for the daemon at baseURL.
func NewCaller(baseURL string, opts ...Option) (*Caller, error) {
	if _, err := url.Parse(baseURL); err != nil {
		return nil, fmt.Errorf("client: bad base URL: %w", err)
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return newCaller(baseURL, o), nil
}

// newCaller wires resolved Options to a base URL (shared with Client,
// whose New keeps its httpClient parameter for compatibility).
func newCaller(baseURL string, o Options) *Caller {
	c := &Caller{
		base:    baseURL,
		http:    o.HTTP,
		retries: o.Retries,
		backoff: o.Backoff,
	}
	// http.NewRequest rather than url.Parse: it also normalises an empty
	// port, so the URL is the one a request to base would carry.
	if req, err := http.NewRequest("GET", baseURL, nil); err == nil {
		if u := req.URL; u.Opaque == "" && u.RawPath == "" && u.RawQuery == "" && !u.ForceQuery &&
			u.Fragment == "" && !strings.HasSuffix(baseURL, "#") {
			c.baseURL = u
		}
	}
	if c.http == nil {
		c.http = http.DefaultClient
	}
	if o.BreakerThreshold > 0 {
		c.breaker = newBreaker(o.BreakerThreshold, o.BreakerCooldown)
	}
	if o.BudgetMax > 0 {
		c.budget = newRetryBudget(o.BudgetMax, o.BudgetRatio)
	}
	return c
}

// Base returns the caller's base URL.
func (c *Caller) Base() string { return c.base }

// request describes one call; withRetry builds a fresh *http.Request
// from it for every attempt.
type request struct {
	method, path string
	// contentType and body belong to a POST. A POST always carries a
	// body, possibly empty.
	contentType string
	body        []byte
}

// GetJSON GETs base+path and decodes the 200 body into out (non-200s
// become *APIError).
func (c *Caller) GetJSON(path string, out any) error {
	return c.withRetry(request{method: "GET", path: path}, out)
}

// PostJSON POSTs body as JSON to base+path and decodes the response.
func (c *Caller) PostJSON(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: marshal: %w", err)
	}
	return c.PostRaw(path, "application/json", buf, out)
}

// PostRaw POSTs a pre-encoded body with an explicit Content-Type
// (the binary report codec path) and decodes the JSON response.
func (c *Caller) PostRaw(path, contentType string, raw []byte, out any) error {
	return c.withRetry(request{method: "POST", path: path, contentType: contentType, body: raw}, out)
}

// plainPath reports whether url.Parse(base + path) would do no more to
// path than split it at the first '?': it starts a new segment, its
// path half holds only bytes URL.EscapedPath writes as they are, and
// nothing in it needs unescaping, starts a fragment or is refused as a
// control byte.
func plainPath(path string) bool {
	if !strings.HasPrefix(path, "/") {
		return false
	}
	inQuery := false
	for i := 0; i < len(path); i++ {
		switch b := path[i]; {
		case b <= ' ', b >= 0x7f, b == '%', b == '#':
			return false
		case inQuery:
		case b == '?':
			inQuery = true
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case strings.IndexByte("-_.~$&+,/:;=@", b) < 0:
			return false
		}
	}
	return true
}

// reqBlock is one attempt's request in one allocation: the request, its
// URL and its body's bytes. Blocks are recycled through blocks. getBody
// is bound once, when the block is made, and serves the block's current
// bytes afresh.
type reqBlock struct {
	req     http.Request
	url     url.URL
	data    []byte
	getBody func() (io.ReadCloser, error)
}

// blocks recycles request blocks, as internal/bufpool does buffers. A
// block goes back only once its response body is read and closed — the
// point from which the http.RoundTripper contract lets a caller reuse a
// request — and never after a transport error, when the Transport may
// still hold the request. The contract does not cover a request's body:
// the Transport may read and close it after the response, as it does
// when the server answers a POST without reading it. So a body is never
// part of a block: each POST reads its bytes through a reader of its own.
var blocks = sync.Pool{New: func() any {
	blk := new(reqBlock)
	blk.getBody = func() (io.ReadCloser, error) {
		if len(blk.data) == 0 {
			return http.NoBody, nil
		}
		return io.NopCloser(bytes.NewReader(blk.data)), nil
	}
	return blk
}}

// release returns blk to blocks with its request zeroed and its body
// dropped, so the pool pins no context and none of the caller's bytes.
// A nil blk — a request http.NewRequest built — is not recycled.
func (blk *reqBlock) release() {
	if blk == nil {
		return
	}
	*blk = reqBlock{getBody: blk.getBody}
	blocks.Put(blk)
}

// Every request carries the same fixed header set, shared and read-only
// (a RoundTripper must not modify its request, and http.Transport only
// reads Header): "Accept-Encoding: identity", so the Transport asks for
// no gzip and builds no per-request header to say so — nothing in LPVS
// compresses a body — and an empty User-Agent, which net/http sends as
// no User-Agent line at all. A POST adds its Content-Type; the two the
// Caller sends have a header of their own.
var (
	getHeader  = fixedHeader()
	jsonHeader = postHeader("application/json")
	wireHeader = postHeader(wire.ContentType)
)

func fixedHeader() http.Header {
	return http.Header{"Accept-Encoding": {"identity"}, "User-Agent": {""}}
}

func postHeader(contentType string) http.Header {
	h := fixedHeader()
	h["Content-Type"] = []string{contentType}
	return h
}

// header is rq's header: a shared one, or a fresh map for a Content-Type
// the Caller has no header for.
func (rq request) header() http.Header {
	if rq.method != "POST" {
		return getHeader
	}
	switch rq.contentType {
	case "application/json":
		return jsonHeader
	case wire.ContentType:
		return wireHeader
	}
	return postHeader(rq.contentType)
}

// chunkedAbove is the body length above which a POST goes out chunked:
// net/http's default Transport write buffer. A body with a
// Content-Length is copied through an io.LimitedReader, and what does
// not fit the buffer reaches net.TCPConn.ReadFrom, whose io.Copy
// allocates a copy buffer of up to 32 KiB for every request. A chunked
// body's *bytes.Reader hands the Transport the whole body in one Write,
// which bufio passes to the connection without a copy buffer. A
// constant, not a knob (DESIGN.md §18).
const chunkedAbove = 4 << 10

// chunked is the TransferEncoding of a POST longer than chunkedAbove,
// shared and read-only like the headers.
var chunked = []string{"chunked"}

// newRequest builds the request http.NewRequest(method, base+path,
// bytes.NewReader(body)) would — same URL, Host, ContentLength and
// GetBody, so the Transport can still replay a POST onto a fresh
// connection when a kept-alive one turns out dead — in a recycled
// reqBlock, which it returns for withRetry to release, without parsing
// base again: for a plainPath the URL is a copy of baseURL with the
// path's two halves appended. Any other path takes http.NewRequest, and
// its request has no block. Either way the header is rq.header(), and a
// POST's body is an io.NopCloser over a bytes.Reader of its own, as
// http.NewRequest makes it: net/http knows that reader to be in memory
// and writes the head and the body in one write, where any other reader
// has the head flushed on its own first. The one difference from
// http.NewRequest: a POST whose body is longer than chunkedAbove has
// an unknown length, so it goes out chunked.
func (c *Caller) newRequest(rq request) (*http.Request, *reqBlock, error) {
	if c.baseURL == nil || !plainPath(rq.path) {
		var body io.Reader
		if rq.method == "POST" {
			body = bytes.NewReader(rq.body)
		}
		req, err := http.NewRequest(rq.method, c.base+rq.path, body)
		if err != nil {
			return nil, nil, err
		}
		req.Header = rq.header()
		if len(rq.body) > chunkedAbove {
			req.ContentLength, req.TransferEncoding = -1, chunked
		}
		return req, nil, nil
	}
	blk := blocks.Get().(*reqBlock)
	blk.url = *c.baseURL
	path, query, forced := strings.Cut(rq.path, "?")
	blk.url.Path += path
	blk.url.RawQuery = query
	blk.url.ForceQuery = forced && query == ""
	blk.req = http.Request{
		Method:     rq.method,
		URL:        &blk.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rq.header(),
		Host:       blk.url.Host,
	}
	if rq.method == "POST" {
		blk.req.Body = http.NoBody
		blk.req.GetBody = blk.getBody
		if len(rq.body) > 0 {
			blk.data = rq.body
			blk.req.ContentLength = int64(len(rq.body))
			blk.req.Body = io.NopCloser(bytes.NewReader(rq.body))
			if len(rq.body) > chunkedAbove {
				blk.req.ContentLength, blk.req.TransferEncoding = -1, chunked
			}
		}
	}
	return &blk.req, blk, nil
}

// send hands req to the client's Transport (http.DefaultTransport when
// it has none), as http.Client.Do would for a request it does not
// redirect: the client's Timeout becomes a deadline on the request's
// context, and a transport error comes back as the *url.Error Do
// returns. done releases the deadline; call it once the response body
// is read and closed, so the deadline covers the body as Timeout does.
func (c *Caller) send(req *http.Request) (resp *http.Response, done func(), err error) {
	rt := c.http.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	done = noop
	if c.http.Timeout > 0 {
		ctx, cancel := context.WithTimeout(req.Context(), c.http.Timeout)
		req, done = req.WithContext(ctx), cancel
	}
	resp, err = rt.RoundTrip(req)
	if err == nil && resp == nil {
		err = fmt.Errorf("http: RoundTripper implementation (%T) returned a nil *Response with a nil error", rt)
	}
	if err != nil {
		done()
		op := req.Method[:1] + strings.ToLower(req.Method[1:])
		return nil, noop, &url.Error{Op: op, URL: req.URL.Redacted(), Err: err}
	}
	if resp.Body == nil {
		resp.Body = http.NoBody
	}
	return resp, done, nil
}

func noop() {}

// withRetry runs the request, retrying transport failures, 5xx
// responses and shed (429) requests with exponential backoff when the
// caller was built with WithRetries. A server Retry-After hint
// replaces the computed backoff for that attempt; the circuit breaker
// and retry budget (when configured) gate every attempt. The request's
// method and path label errors; they are joined on failure, not per
// call.
func (c *Caller) withRetry(rq request, out any) error {
	delay := c.backoff
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if c.budget != nil && !c.budget.spend() {
				return fmt.Errorf("client: %s %s: retry budget exhausted: %w", rq.method, rq.path, lastErr)
			}
			time.Sleep(delay)
			delay *= 2
		}
		if c.breaker != nil {
			if err := c.breaker.allow(); err != nil {
				if lastErr != nil {
					return fmt.Errorf("%w (last error: %w)", err, lastErr)
				}
				return err
			}
		}
		var resp *http.Response
		done := noop
		req, blk, err := c.newRequest(rq)
		if err == nil {
			resp, done, err = c.send(req)
		}
		if err != nil {
			// blk is not released: the Transport may still hold req.
			lastErr = fmt.Errorf("client: %s %s: %w", rq.method, rq.path, err)
			c.recordOutcome(false)
			continue
		}
		err = decode(resp, out)
		resp.Body.Close()
		done()
		blk.release()
		if retriableStatus(resp.StatusCode) {
			if ra := retryAfter(resp); ra > 0 {
				delay = ra
			}
			lastErr = err
			c.recordOutcome(false)
			continue
		}
		// The server answered and was not failing: a 4xx is the
		// caller's problem, not the edge's health.
		c.recordOutcome(true)
		if c.budget != nil && err == nil {
			c.budget.earn()
		}
		return err
	}
	return lastErr
}

// retriableStatus: server faults and shedding; never other 4xx.
func retriableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

func (c *Caller) recordOutcome(success bool) {
	if c.breaker != nil {
		c.breaker.record(success)
	}
}

// jsonReader is a reply that reads its own append layout, reporting
// false, with the reply untouched, for any other body.
type jsonReader interface{ ReadJSON(data []byte) bool }

// decode parses a response: a 200 body into out, everything else into
// a typed *APIError carrying the v1 envelope's code and retryability
// (code "unknown" when the body was not an envelope). The 200 body is
// read whole into a pooled buffer first. An out that is an io.Writer
// is not decoded into: it receives the body's bytes as they arrived,
// in one Write — how the router relays a shard's answer. Otherwise the
// body must be exactly one JSON value; the daemon and the router send
// one value and a newline. A hot reply (a decision, a chunk, a single
// report's acknowledgement, a shard's or a router's tick reply) is
// first read in the layout the daemon and the router append it in (the
// ReadJSON methods of server and router, DESIGN.md §18), and only a
// body that reader declines goes through json.Unmarshal.
func decode(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{
			Status:    resp.StatusCode,
			Code:      "unknown",
			Message:   fmt.Sprintf("status %d", resp.StatusCode),
			Retryable: retriableStatus(resp.StatusCode),
		}
		var env server.ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			apiErr.Code = env.Error.Code
			apiErr.Message = env.Error.Message
			apiErr.Retryable = env.Error.Retryable
		}
		return apiErr
	}
	if out == nil {
		if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)); err != nil {
			return fmt.Errorf("client: read body: %w", err)
		}
		return nil
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("client: read body: %w", err)
	}
	if w, ok := out.(io.Writer); ok {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return fmt.Errorf("client: relay body: %w", err)
		}
		return nil
	}
	if r, ok := out.(jsonReader); ok && r.ReadJSON(buf.Bytes()) {
		return nil
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("client: decode: %w", err)
	}
	return nil
}
