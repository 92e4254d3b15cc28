package client

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The v1 error contract: every error response, on every path, is the
// structured envelope
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N,
//	           "request_id": "..."}}
//
// with a machine-readable code, so clients branch on codes instead of
// parsing prose. retry_after_ms appears only on the two 429 codes and
// always agrees with the Retry-After header. Per-row errors inside batch
// and ingest streams carry the same object without request_id (the
// stream's trailer carries the ID once). The server, the cluster
// coordinator and this SDK all speak it through the declarations below.

// The error codes. Each answers the HTTP status StatusOf gives it.
const (
	// CodeBadRequest: malformed body, unknown field, missing/empty required
	// input, or an out-of-range parameter.
	CodeBadRequest = "bad_request"
	// CodeNotFound: unknown path.
	CodeNotFound = "not_found"
	// CodeCorpusNotFound: a /v1/corpora/{name} path naming a corpus the
	// server does not hold. Distinct from not_found so clients can tell
	// "wrong URL" from "corpus not (yet) loaded".
	CodeCorpusNotFound = "corpus_not_found"
	// CodeMethodNotAllowed: known path, wrong HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnprocessable: a reload, load, activate, rollback or roll that
	// could not complete (snapshot unreadable, no rebuild source,
	// overlapping rebuild, version not in history).
	CodeUnprocessable = "unprocessable"
	// CodeOverloaded: the shared batch budget is saturated; retry after
	// the advertised delay.
	CodeOverloaded = "overloaded"
	// CodeQuotaExhausted: the requesting tenant's token-bucket rate limit
	// is exhausted; retry after the advertised delay. Distinct from
	// "overloaded" because the remedies differ.
	CodeQuotaExhausted = "quota_exhausted"
	// CodePayloadTooLarge: the request body exceeded the endpoint's byte
	// bound (snapshot uploads: -max-upload-bytes). Not retryable without a
	// smaller payload, so no Retry-After.
	CodePayloadTooLarge = "payload_too_large"
	// CodeInternal: the server failed mid-request (panic in a batch row,
	// cancelled work).
	CodeInternal = "internal"
	// CodeNotReady: no snapshot state to answer from (a coordinator: no
	// alive peer).
	CodeNotReady = "not_ready"
	// CodeIngestLogFailed: a write or fsync on the corpus's ingest log
	// failed. The log refuses every append until the server restarts and
	// replays it; acknowledged rows are intact.
	CodeIngestLogFailed = "ingest_log_failed"
)

// StatusOf returns the HTTP status that answers an error code.
func StatusOf(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound, CodeCorpusNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeUnprocessable:
		return http.StatusUnprocessableEntity
	case CodeOverloaded, CodeQuotaExhausted:
		return http.StatusTooManyRequests
	case CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeNotReady, CodeIngestLogFailed:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ErrorBody is the machine-readable error object, shared by top-level
// error responses and per-row stream error lines.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs advertises the retry delay on the 429 codes, in
	// milliseconds; it always agrees with the Retry-After header.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// RequestID echoes the request's X-Request-ID; absent on row errors.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorEnvelope is the body of every error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
	// Rolled lists the peers a failed POST /v1/cluster/roll did move
	// before it stopped; absent on every other error.
	Rolled []RolledPeer `json:"rolled,omitempty"`
}

// RowHead opens every line of a batch or ingest response stream but the
// trailer: the zero-based index of the input the line answers and the
// input's echoed id. An answer line continues with the response's fields,
// an error line with an ErrorEnvelope's.
type RowHead struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
}

// APIError is a non-2xx answer from the service, carrying the structured
// v1 error envelope. Use errors.As to branch on it:
//
//	var aerr *client.APIError
//	if errors.As(err, &aerr) && aerr.Code == client.CodeOverloaded { ... }
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error class, one of the Code*
	// constants; empty when the server spoke the pre-v1 bare-string
	// envelope. Both 429 codes carry RetryAfter: "overloaded" means the
	// shared batch budget is saturated, "quota_exhausted" means this
	// tenant's own rate limit is.
	Code string
	// Message is the human-readable explanation.
	Message string
	// RequestID ties the failure to the server's view of the request.
	RequestID string
	// RetryAfter is the server-advertised retry delay on overloaded
	// responses, 0 otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	code := e.Code
	if code == "" {
		code = fmt.Sprintf("http %d", e.Status)
	}
	if e.RequestID != "" {
		return fmt.Sprintf("mapsynth: %s (%s, request %s)", e.Message, code, e.RequestID)
	}
	return fmt.Sprintf("mapsynth: %s (%s)", e.Message, code)
}

// apiError converts the wire object into the SDK's error, keeping
// requestID when the object carries none.
func (b ErrorBody) apiError(status int, requestID string) *APIError {
	if b.RequestID != "" {
		requestID = b.RequestID
	}
	return &APIError{
		Status:     status,
		Code:       b.Code,
		Message:    b.Message,
		RequestID:  requestID,
		RetryAfter: time.Duration(b.RetryAfterMs) * time.Millisecond,
	}
}

// parseAPIError builds the *APIError for a non-2xx response, understanding
// the v1 structured envelope, the pre-v1 bare-string envelope, and — as a
// last resort — raw bodies from intermediaries.
func parseAPIError(resp *http.Response, data []byte) *APIError {
	aerr := &APIError{
		Status:    resp.StatusCode,
		RequestID: resp.Header.Get("X-Request-ID"),
	}
	var envelope struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(data, &envelope) == nil && len(envelope.Error) > 0 {
		var structured ErrorBody
		var bare string
		switch {
		case json.Unmarshal(envelope.Error, &structured) == nil && structured.Code != "":
			aerr = structured.apiError(resp.StatusCode, aerr.RequestID)
		case json.Unmarshal(envelope.Error, &bare) == nil:
			aerr.Message = bare
		}
	}
	if aerr.Message == "" {
		aerr.Message = strings.TrimSpace(string(data))
		if aerr.Message == "" {
			aerr.Message = http.StatusText(resp.StatusCode)
		}
	}
	if aerr.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			aerr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return aerr
}
