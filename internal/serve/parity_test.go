package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mapsynth/internal/qos"
	"mapsynth/pkg/client"
)

// doReq issues one request against h with a pinned X-Request-ID so response
// bodies that echo the ID are reproducible byte for byte.
func doReq(t *testing.T, h http.Handler, method, path, body, reqID string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-Request-ID", reqID)
	h.ServeHTTP(rec, req)
	return rec
}

// TestErrorEnvelopeGoldens pins the exact wire shape of every error code in
// the v1 contract. These are golden bodies, not structural checks: clients
// branch on this JSON, so any drift — field order, naming, casing — is a
// breaking change this test is meant to catch.
func TestErrorEnvelopeGoldens(t *testing.T) {
	const reqID = "golden-id"
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()

	// A server whose only batch request slot is already held: the next
	// batch request must be rejected with the overloaded envelope.
	busy, _ := newTestServer(t, 8)
	busy.batch = newBatchLimiter(1)
	busy.batch.requestSem <- struct{}{}
	busyH := busy.Handler()

	// A server whose default tenant has a drained token bucket: the next
	// request must be rejected with the quota_exhausted envelope. Rate 0.5
	// with burst 1 means the drained bucket owes just under 2s, which
	// rounds up to a stable Retry-After of 2 for any sub-second gap
	// between the drain below and the golden request.
	quota := NewFromMappings(testMappings(), Options{
		Tenants: []qos.Spec{{Name: "default", Weight: 1, Rate: 0.5, Burst: 1}},
	})
	quotaH := quota.Handler()
	if rec := doReq(t, quotaH, http.MethodGet, "/v1/lookup?key=tcp", "", reqID); rec.Code != http.StatusOK {
		t.Fatalf("quota drain request = %d: %s", rec.Code, rec.Body.String())
	}

	// A server with no loaded snapshot state answers not_ready.
	empty := newServer(Options{})
	emptyH := empty.Handler()

	// A server with a tiny upload bound: an oversized snapshot upload must
	// be rejected with the payload_too_large envelope.
	small := NewFromMappings(testMappings(), Options{MaxUploadBytes: 16})
	smallH := small.Handler()

	// The internal code is produced by mid-request failures (cancellation,
	// row panics) that are awkward to trigger deterministically; golden its
	// envelope through the same writeError choke point every handler uses.
	internalH := withRequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, client.CodeInternal, "simulated mid-request failure")
	}))

	cases := []struct {
		name   string
		h      http.Handler
		method string
		path   string
		body   string
		status int
		golden string
	}{
		{"bad_request empty input", h, http.MethodPost, "/v1/autofill", `{"column":[]}`,
			http.StatusBadRequest,
			`{"error":{"code":"bad_request","message":"column must not be empty","request_id":"golden-id"}}`},
		{"bad_request top_k range", h, http.MethodPost, "/v1/autofill", `{"column":["x"],"top_k":101}`,
			http.StatusBadRequest,
			`{"error":{"code":"bad_request","message":"top_k must be within [0, 100], got 101","request_id":"golden-id"}}`},
		{"bad_request min_coverage range", h, http.MethodPost, "/v1/autojoin", `{"keys_a":["x"],"keys_b":["y"],"min_coverage":1.5}`,
			http.StatusBadRequest,
			`{"error":{"code":"bad_request","message":"min_coverage must be within [0, 1], got 1.5","request_id":"golden-id"}}`},
		{"bad_request min_each range", h, http.MethodPost, "/v1/autocorrect", `{"column":["x"],"min_each":-2}`,
			http.StatusBadRequest,
			// encoding/json HTML-escapes '>' on the wire; the golden pins
			// the literal bytes clients receive.
			`{"error":{"code":"bad_request","message":"min_each must be \u003e= 0, got -2","request_id":"golden-id"}}`},
		{"not_found", h, http.MethodGet, "/v1/nope", "",
			http.StatusNotFound,
			`{"error":{"code":"not_found","message":"no such endpoint: /v1/nope","request_id":"golden-id"}}`},
		{"corpus_not_found", h, http.MethodGet, "/v1/corpora/tickers/lookup?key=x", "",
			http.StatusNotFound,
			`{"error":{"code":"corpus_not_found","message":"no such corpus: \"tickers\"","request_id":"golden-id"}}`},
		{"method_not_allowed", h, http.MethodGet, "/v1/autofill", "",
			http.StatusMethodNotAllowed,
			`{"error":{"code":"method_not_allowed","message":"POST required","request_id":"golden-id"}}`},
		{"unprocessable", h, http.MethodPost, "/v1/reload", `{"rebuild":true}`,
			http.StatusUnprocessableEntity,
			`{"error":{"code":"unprocessable","message":"reload failed: serve: no rebuild source configured","request_id":"golden-id"}}`},
		{"overloaded", busyH, http.MethodPost, "/v1/batch/autofill", `{"column":["x"]}` + "\n",
			http.StatusTooManyRequests,
			`{"error":{"code":"overloaded","message":"batch capacity saturated, retry later","retry_after_ms":1000,"request_id":"golden-id"}}`},
		{"quota_exhausted", quotaH, http.MethodGet, "/v1/lookup?key=tcp", "",
			http.StatusTooManyRequests,
			`{"error":{"code":"quota_exhausted","message":"tenant \"default\" rate limit exhausted, retry later","retry_after_ms":2000,"request_id":"golden-id"}}`},
		{"payload_too_large", smallH, http.MethodPut, "/v1/corpora/up", "MSNP" + strings.Repeat("x", 64),
			http.StatusRequestEntityTooLarge,
			`{"error":{"code":"payload_too_large","message":"request body exceeds 16 bytes (-max-upload-bytes)","request_id":"golden-id"}}`},
		{"not_ready", emptyH, http.MethodGet, "/v1/healthz", "",
			http.StatusServiceUnavailable,
			`{"error":{"code":"not_ready","message":"no snapshot loaded yet","request_id":"golden-id"}}`},
		{"internal", internalH, http.MethodGet, "/v1/anything", "",
			http.StatusInternalServerError,
			`{"error":{"code":"internal","message":"simulated mid-request failure","request_id":"golden-id"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doReq(t, tc.h, tc.method, tc.path, tc.body, reqID)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.status, rec.Body.String())
			}
			if got := rec.Body.String(); got != tc.golden+"\n" {
				t.Errorf("body = %s\nwant %s", got, tc.golden)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			// The overloaded path advertises the retry delay twice — header
			// and body — from one duration; they must agree exactly.
			if tc.status == http.StatusTooManyRequests {
				secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
				if err != nil {
					t.Fatalf("bad Retry-After header %q", rec.Header().Get("Retry-After"))
				}
				var env client.ErrorEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatal(err)
				}
				if int64(secs)*1000 != env.Error.RetryAfterMs {
					t.Errorf("Retry-After %ds != retry_after_ms %d", secs, env.Error.RetryAfterMs)
				}
			}
		})
	}
}
