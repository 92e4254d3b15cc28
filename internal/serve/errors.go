package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mapsynth/pkg/client"
)

// Every error response is client.ErrorEnvelope (see pkg/client for the
// codes and their statuses), and writeError and write429 are the only
// writers of it, so every path speaks the same shape. A 429's Retry-After
// header and retry_after_ms derive from one duration.

// computeError is a validation or execution failure bubbling out of the
// shared compute paths: the single-request handlers turn it into an
// envelope with the code's status, batch streams into a per-row error line.
type computeError struct {
	code string
	msg  string
}

func badRequestf(format string, args ...any) *computeError {
	return &computeError{code: client.CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeError answers one request with the structured envelope. It is the
// single choke point for non-429 errors, so every path — including 404s,
// 405s and body-decode failures — speaks the same shape.
func writeError(w http.ResponseWriter, r *http.Request, code, msg string) bool {
	noteErrCode(r, code)
	return writeJSON(w, client.StatusOf(code), client.ErrorEnvelope{Error: client.ErrorBody{
		Code:      code,
		Message:   msg,
		RequestID: requestID(r),
	}})
}

// writeOverloaded answers 429 "overloaded" (server-wide admission control
// rejected the request); see write429.
func writeOverloaded(w http.ResponseWriter, r *http.Request, retryAfter time.Duration, msg string) bool {
	return write429(w, r, client.CodeOverloaded, retryAfter, msg)
}

// writeQuotaExhausted answers 429 "quota_exhausted" (the tenant's own rate
// limit rejected the request); retryAfter is the token bucket's honest
// refill estimate, so the advertised delay is when a retry can actually
// succeed.
func writeQuotaExhausted(w http.ResponseWriter, r *http.Request, retryAfter time.Duration, msg string) bool {
	return write429(w, r, client.CodeQuotaExhausted, retryAfter, msg)
}

// write429 answers 429 with the Retry-After header and the envelope's
// retry_after_ms derived from the same duration, so the two advertisements
// cannot drift.
func write429(w http.ResponseWriter, r *http.Request, code string, retryAfter time.Duration, msg string) bool {
	noteErrCode(r, code)
	secs := int64(retryAfter / time.Second)
	if retryAfter%time.Second != 0 {
		secs++ // the header is whole seconds; round up, never advertise 0
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	return writeJSON(w, http.StatusTooManyRequests, client.ErrorEnvelope{Error: client.ErrorBody{
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
