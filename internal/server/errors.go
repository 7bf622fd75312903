package server

import "net/http"

// This file defines the v1 error envelope: every non-2xx response body
// is {"error":{"code","message","retryable"}}. Code is a stable
// machine-readable string from the set below (add new codes rather
// than renaming — clients switch on them); Message is prose for
// humans; Retryable tells a client whether repeating the identical
// request can ever succeed (transient overload / server faults) or is
// pointless (the request itself is wrong).

// Error codes of the v1 API.
const (
	// CodeBadRequest: the request body or parameters failed validation.
	CodeBadRequest = "bad_request"
	// CodeUnknownDevice: the device ID has never reported to this edge.
	CodeUnknownDevice = "unknown_device"
	// CodeUnknownChannel: the report named a stream the site does not
	// serve.
	CodeUnknownChannel = "unknown_channel"
	// CodeNotFound: the resource (chunk index, route) does not exist.
	CodeNotFound = "not_found"
	// CodeNotScheduled: the device exists but has not been through a
	// scheduling tick yet, so there is no verdict to explain.
	CodeNotScheduled = "not_scheduled"
	// CodePayloadTooLarge: the request body exceeded the daemon's cap.
	CodePayloadTooLarge = "payload_too_large"
	// CodeBatchTooLarge: the batch declared more records than the
	// daemon's per-batch cap — a byte cap alone would let a compact
	// binary batch smuggle unbounded records under it.
	CodeBatchTooLarge = "batch_too_large"
	// CodeUnsupportedMedia: a binary report's frame version is one this
	// daemon does not speak.
	CodeUnsupportedMedia = "unsupported_media"
	// CodeMethodNotAllowed: the route exists but not for this method;
	// the Allow header lists the supported ones.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded: admission control shed the request; retry after
	// the Retry-After delay.
	CodeOverloaded = "overloaded"
	// CodeInternal: the daemon failed; the request may succeed later.
	CodeInternal = "internal"
	// CodeEpochMismatch: the caller's shard-map epoch differs from the
	// one installed on this node — ownership may disagree, so the node
	// refuses to act. Exchange maps via /v1/shard/map and retry.
	CodeEpochMismatch = "shard_epoch_mismatch"
	// CodeWrongShard: the request was addressed to a node ID this
	// process is not — a routing bug or a stale shard map.
	CodeWrongShard = "wrong_shard"
	// CodeShardUnavailable: a downstream shard could not be reached or
	// failed; the router degrades rather than guessing its decisions.
	CodeShardUnavailable = "shard_unavailable"
)

// ErrorBody is the envelope payload.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// ErrorResponse is the uniform error body of every endpoint.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// retryable classifies a status: overload and server faults are worth
// retrying, client errors never are.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// writeError writes the envelope for one error.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeErrorMsg(w, status, code, err.Error())
}

// WriteEnvelopeError renders the v1 error envelope for other servers
// speaking the same API (the router in internal/router), so every
// personality's errors are byte-compatible with the edge daemon's.
func WriteEnvelopeError(w http.ResponseWriter, status int, code, msg string) {
	writeErrorMsg(w, status, code, msg)
}

// writeErrorMsg is writeError with a pre-rendered message.
func writeErrorMsg(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: ErrorBody{
		Code:      code,
		Message:   msg,
		Retryable: retryable(status),
	}})
}

// apiError carries a status and code alongside the message, so deep
// helpers can classify failures and handlers render them uniformly.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func (e *apiError) Error() string { return e.Message }

// write renders the apiError as its envelope.
func (e *apiError) write(w http.ResponseWriter) {
	writeErrorMsg(w, e.Status, e.Code, e.Message)
}

func errBadRequest(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: msg}
}
