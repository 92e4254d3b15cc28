package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// The v1 error contract: every error response, on every path, is the
// structured envelope
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": N,
//	           "request_id": "..."}}
//
// with a machine-readable code, so clients branch on codes instead of
// parsing prose, and the request ID ties a client-side failure to the
// server's view of the same request. retry_after_ms appears only on
// "overloaded" and is kept in sync with the Retry-After header by
// construction (both derive from one duration).

// ErrorCode is a stable machine-readable error class.
type ErrorCode string

const (
	// CodeBadRequest: malformed body, unknown field, missing/empty required
	// input, or an out-of-range parameter.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: unknown path.
	CodeNotFound ErrorCode = "not_found"
	// CodeCorpusNotFound: a /v1/corpora/{name} path naming a corpus the
	// registry does not hold. Distinct from not_found so clients can tell
	// "wrong URL" from "corpus not (yet) loaded".
	CodeCorpusNotFound ErrorCode = "corpus_not_found"
	// CodeMethodNotAllowed: known path, wrong HTTP method.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeUnprocessable: a /reload that could not complete (snapshot
	// unreadable, no rebuild source, overlapping rebuild).
	CodeUnprocessable ErrorCode = "unprocessable"
	// CodeOverloaded: admission control rejected the request; retry after
	// the advertised delay.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeQuotaExhausted: the requesting tenant's token-bucket rate limit
	// is exhausted; retry after the advertised delay. Distinct from
	// "overloaded" so clients can tell "the server is saturated" from
	// "your quota is", which call for different remedies.
	CodeQuotaExhausted ErrorCode = "quota_exhausted"
	// CodePayloadTooLarge: the request body exceeded the endpoint's byte
	// bound (snapshot uploads: -max-upload-bytes). Not retryable without a
	// smaller payload, so no Retry-After.
	CodePayloadTooLarge ErrorCode = "payload_too_large"
	// CodeInternal: the server failed mid-request (panic in a batch row,
	// cancelled work).
	CodeInternal ErrorCode = "internal"
	// CodeNotReady: the server has no loaded snapshot state to answer from.
	CodeNotReady ErrorCode = "not_ready"
	// CodeIngestLogFailed: a write or fsync on the corpus's ingest log
	// failed (ingest.ErrLogFailed). The log refuses every append until the
	// server restarts and replays it; acknowledged rows are intact.
	CodeIngestLogFailed ErrorCode = "ingest_log_failed"
)

// statusForCode maps an error class to its HTTP status.
func statusForCode(code ErrorCode) int {
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

// apiError is the machine-readable error body, shared by top-level error
// responses and per-row batch error lines.
type apiError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// RetryAfterMs advertises the retry delay on "overloaded" errors, in
	// milliseconds; it always agrees with the Retry-After header.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// RequestID echoes the request's X-Request-ID (absent on batch row
	// errors — the stream's trailer carries the ID once).
	RequestID string `json:"request_id,omitempty"`
}

// errorEnvelope is the top-level JSON shape of every error response.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// computeError is a validation or execution failure bubbling out of the
// shared compute paths: the single-request handlers turn it into an
// envelope with the code's status, batch streams into a per-row error line.
type computeError struct {
	code ErrorCode
	msg  string
}

func badRequestf(format string, args ...any) *computeError {
	return &computeError{code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeError answers one request with the structured envelope. It is the
// single choke point for non-429 errors, so every path — including 404s,
// 405s and body-decode failures — speaks the same shape.
func writeError(w http.ResponseWriter, r *http.Request, code ErrorCode, msg string) bool {
	noteErrCode(r, code)
	return writeJSON(w, statusForCode(code), errorEnvelope{Error: apiError{
		Code:      code,
		Message:   msg,
		RequestID: requestID(r),
	}})
}

// writeOverloaded answers 429 "overloaded" (server-wide admission control
// rejected the request); see write429.
func writeOverloaded(w http.ResponseWriter, r *http.Request, retryAfter time.Duration, msg string) bool {
	return write429(w, r, CodeOverloaded, retryAfter, msg)
}

// writeQuotaExhausted answers 429 "quota_exhausted" (the tenant's own rate
// limit rejected the request); retryAfter is the token bucket's honest
// refill estimate, so the advertised delay is when a retry can actually
// succeed.
func writeQuotaExhausted(w http.ResponseWriter, r *http.Request, retryAfter time.Duration, msg string) bool {
	return write429(w, r, CodeQuotaExhausted, retryAfter, msg)
}

// write429 answers 429 with the Retry-After header and the envelope's
// retry_after_ms derived from the same duration, so the two advertisements
// cannot drift.
func write429(w http.ResponseWriter, r *http.Request, code ErrorCode, retryAfter time.Duration, msg string) bool {
	noteErrCode(r, code)
	secs := int64(retryAfter / time.Second)
	if retryAfter%time.Second != 0 {
		secs++ // the header is whole seconds; round up, never advertise 0
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	return writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Error: apiError{
		Code:         code,
		Message:      msg,
		RetryAfterMs: secs * 1000,
		RequestID:    requestID(r),
	}})
}

// ---- request IDs ----

type ctxKey int

const requestIDKey ctxKey = iota

// requestID returns the ID assigned to this request by withRequestID, ""
// when the middleware did not run (direct handler tests).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// withRequestID assigns every request an ID — the client's X-Request-ID
// when it supplied a plausible one, a fresh random ID otherwise — echoes it
// in the X-Request-ID response header, and exposes it to handlers via the
// request context so error envelopes, /stats and batch trailers can carry
// it in-body.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := clientRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// clientRequestID accepts a client-supplied ID only when it is short and
// printable ASCII — anything else is replaced rather than reflected into
// headers and logs.
func clientRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return ""
		}
	}
	return s
}

// newRequestID returns 16 hex characters of crypto/rand entropy.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
