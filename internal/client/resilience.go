package client

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// This file is the client side of the resilience layer (DESIGN.md
// §12): the typed v1 error envelope, a circuit breaker that stops
// hammering a failing edge, and a retry budget that bounds how much
// retry traffic a struggling fleet can amplify. All three are opt-in
// via Options and add nothing to the request path when unused.

// APIError is a decoded v1 error envelope. Every non-200 edge response
// surfaces as one (errors.As-able), so callers can switch on the
// stable Code instead of scraping message strings.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code (server.Code*), or
	// "unknown" when the body was not a v1 envelope (a proxy error, an
	// old server).
	Code string
	// Message is the server's prose.
	Message string
	// Retryable echoes the envelope's verdict: whether repeating the
	// identical request can ever succeed.
	Retryable bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: edge returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// ErrCircuitOpen is returned (wrapped in errors.Is-able form) when the
// circuit breaker is open and the call was not attempted.
var ErrCircuitOpen = fmt.Errorf("client: circuit breaker open")

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a three-state circuit breaker: `threshold` consecutive
// failures open it, rejecting calls without touching the network;
// after `cooldown` one probe is let through (half-open) and its
// outcome closes or re-opens the circuit.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	state    int
	failures int
	openedAt time.Time
	probing  bool
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a call may proceed. In the open state it
// returns ErrCircuitOpen until the cooldown elapses, then admits a
// single probe.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrCircuitOpen
		}
		b.state = breakerHalfOpen
		b.probing = true
		return nil
	default: // half-open: one probe at a time
		if b.probing {
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// record feeds a call outcome back. Any response from a live server —
// including 4xx — counts as success; transport failures, 5xx and shed
// requests count as failures.
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.failures = 0
	}
}

// retryBudget is a token bucket bounding retry amplification: each
// retry spends one token, each successful request earns `ratio`
// tokens (capped at `max`). A fleet that is mostly failing therefore
// runs out of retries instead of multiplying the overload — the
// standard antidote to retry storms.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

func newRetryBudget(max, ratio float64) *retryBudget {
	return &retryBudget{tokens: max, max: max, ratio: ratio}
}

// spend consumes one retry token if available.
func (rb *retryBudget) spend() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// earn credits a successful request.
func (rb *retryBudget) earn() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
}

// retryAfter parses the Retry-After header (delta-seconds form; the
// HTTP-date form is not used by the edge) — zero when absent or
// unparsable.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
