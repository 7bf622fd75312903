package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"lpvs/internal/wire"
)

// This file turns a request body into a value or a typed envelope. The
// edge daemon and the router (internal/router) decode through the same
// helpers, so a malformed request earns the same answer from either.

// decodeError classifies a body-decode failure: a tripped body cap and
// an over-long batch are 413s, binary version skew a 415, anything else
// — framing corruption, an unknown frame kind, JSON syntax, a JSON
// array, a failed read — a 400 carrying the decoder's text.
func decodeError(err error) *apiError {
	var tooBig *http.MaxBytesError
	var tooMany *wire.BatchTooLargeError
	switch {
	case errors.As(err, &tooBig):
		return &apiError{Status: http.StatusRequestEntityTooLarge, Code: CodePayloadTooLarge,
			Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	case errors.As(err, &tooMany):
		return &apiError{Status: http.StatusRequestEntityTooLarge, Code: CodeBatchTooLarge, Message: tooMany.Error()}
	case errors.Is(err, wire.ErrVersion):
		return &apiError{Status: http.StatusUnsupportedMediaType, Code: CodeUnsupportedMedia, Message: err.Error()}
	default:
		return errBadRequest(err.Error())
	}
}

// readBody drains a capped request body and closes it: net/http then
// knows the body is spent, where an open one is drained again after the
// handler answers, through an io.CopyN that allocates.
func readBody(r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, decodeError(fmt.Errorf("read body: %w", err))
	}
	_ = r.Body.Close() // read to EOF: nothing is left to fail
	return body, nil
}

// DecodeJSON reads a JSON request body into v. On failure it answers
// the envelope (413 past the body cap, 400 otherwise) and returns
// false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, aerr := readBody(r)
	if aerr == nil {
		if err := json.Unmarshal(body, v); err != nil {
			aerr = errBadRequest("decode: " + err.Error())
		}
	}
	if aerr != nil {
		aerr.write(w)
		return false
	}
	return true
}

// DecodeReport reads a POST /v1/report body in either framing
// (wire.ReadReport, which documents maxRecords, scratch and one). On
// failure it answers the envelope and returns false.
func DecodeReport(w http.ResponseWriter, r *http.Request, maxRecords int, scratch func() *wire.Scratch, one *[1]wire.ReportRequest) (wire.Message, bool) {
	msg, err := wire.ReadReport(r.Header.Get("Content-Type"), r.Body, maxRecords, scratch, one)
	if err != nil {
		decodeError(err).write(w)
		return msg, false
	}
	// Both readers read to EOF (the binary one checks for trailing
	// bytes), so the body is spent: closed, as readBody closes it.
	_ = r.Body.Close()
	return msg, true
}
