package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouting pins the routing contract for every endpoint: known paths
// answer with their documented status at both the /v1/ canonical path and
// the deprecated unversioned alias, wrong methods get a structured JSON
// 405, and unknown paths — including near-misses under registered prefixes
// and under /v1/ — get a structured JSON 404 instead of the mux's
// plain-text default (or, worse, a silent 200).
func TestRouting(t *testing.T) {
	srv, _ := newTestServer(t, 8)
	h := srv.Handler()

	cases := []struct {
		method    string
		path      string
		body      string
		status    int
		jsonError bool // body must be the structured {"error":{...}} envelope
	}{
		// Happy paths.
		{http.MethodGet, "/healthz", "", http.StatusOK, false},
		{http.MethodGet, "/stats", "", http.StatusOK, false},
		{http.MethodGet, "/lookup?key=California", "", http.StatusOK, false},
		{http.MethodPost, "/autofill", `{"column":["Seattle"]}`, http.StatusOK, false},
		{http.MethodPost, "/autocorrect", `{"column":["California","CA","WA","Washington"]}`, http.StatusOK, false},
		{http.MethodPost, "/autojoin", `{"keys_a":["California"],"keys_b":["CA"]}`, http.StatusOK, false},
		{http.MethodPost, "/batch/autofill", `{"column":["Seattle"]}`, http.StatusOK, false},
		{http.MethodPost, "/batch/autocorrect", `{"column":["California","CA","WA","Washington"]}`, http.StatusOK, false},
		{http.MethodPost, "/batch/autojoin", `{"keys_a":["California"],"keys_b":["CA"]}`, http.StatusOK, false},

		// Wrong methods: JSON 405.
		{http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed, true},
		{http.MethodPost, "/stats", "", http.StatusMethodNotAllowed, true},
		{http.MethodPost, "/lookup?key=California", "", http.StatusMethodNotAllowed, true},
		{http.MethodGet, "/autofill", "", http.StatusMethodNotAllowed, true},
		{http.MethodGet, "/autocorrect", "", http.StatusMethodNotAllowed, true},
		{http.MethodGet, "/autojoin", "", http.StatusMethodNotAllowed, true},
		{http.MethodGet, "/reload", "", http.StatusMethodNotAllowed, true},
		{http.MethodGet, "/batch/autojoin", "", http.StatusMethodNotAllowed, true},

		// Unknown paths: JSON 404, never an empty 200.
		{http.MethodGet, "/", "", http.StatusNotFound, true},
		{http.MethodGet, "/nope", "", http.StatusNotFound, true},
		{http.MethodGet, "/lookup/extra", "", http.StatusNotFound, true},
		{http.MethodPost, "/autofill/", `{"column":["x"]}`, http.StatusNotFound, true},
		{http.MethodPost, "/batch", "", http.StatusNotFound, true},
		{http.MethodPost, "/batch/", "", http.StatusNotFound, true},
		{http.MethodPost, "/batch/nope", "", http.StatusNotFound, true},
		{http.MethodGet, "/v1", "", http.StatusNotFound, true},
		{http.MethodGet, "/v1/", "", http.StatusNotFound, true},
		{http.MethodGet, "/v1/nope", "", http.StatusNotFound, true},
		{http.MethodPost, "/v1/batch/nope", "", http.StatusNotFound, true},
		{http.MethodGet, "/v2/lookup", "", http.StatusNotFound, true},

		// Corpus surface: scoped happy paths for the default corpus, 404s
		// for unknown subpaths and unknown corpora (corpus_not_found is
		// still a structured JSON 404).
		{http.MethodGet, "/v1/corpora", "", http.StatusOK, false},
		{http.MethodGet, "/v1/corpora/default", "", http.StatusOK, false},
		{http.MethodGet, "/v1/corpora/default/lookup?key=California", "", http.StatusOK, false},
		{http.MethodPost, "/v1/corpora/default/autofill", `{"column":["Seattle"]}`, http.StatusOK, false},
		{http.MethodPost, "/v1/corpora/default/batch/autofill", `{"column":["Seattle"]}`, http.StatusOK, false},
		{http.MethodGet, "/v1/corpora/default/stats", "", http.StatusOK, false},
		{http.MethodGet, "/v1/corpora/nope/lookup?key=x", "", http.StatusNotFound, true},
		{http.MethodGet, "/v1/corpora/default/nope", "", http.StatusNotFound, true},
		{http.MethodGet, "/v1/corpora/default/batch/nope", "", http.StatusNotFound, true},
		{http.MethodPost, "/v1/corpora", "", http.StatusMethodNotAllowed, true},
		{http.MethodPost, "/v1/corpora/default/lookup?key=x", "", http.StatusMethodNotAllowed, true},

		// Bad inputs on known paths: JSON 400.
		{http.MethodGet, "/lookup", "", http.StatusBadRequest, true},
		{http.MethodPost, "/autofill", `{"column":[]}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autofill", `{"colunm":["x"]}`, http.StatusBadRequest, true},

		// Out-of-range parameters: JSON 400 with code bad_request.
		{http.MethodPost, "/autofill", `{"column":["x"],"min_coverage":1.5}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autofill", `{"column":["x"],"min_coverage":-0.1}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autofill", `{"column":["x"],"top_k":101}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autocorrect", `{"column":["x"],"top_k":-1}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autocorrect", `{"column":["x"],"min_each":-2}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autojoin", `{"keys_a":["x"],"keys_b":["y"],"top_k":200}`, http.StatusBadRequest, true},
	}
	for _, tc := range cases {
		// Every case must behave identically at its /v1 canonical path; the
		// unknown-path cases under /v1 are listed explicitly above.
		paths := []string{tc.path}
		if !strings.HasPrefix(tc.path, "/v1") && tc.path != "/" {
			paths = append(paths, "/v1"+tc.path)
		}
		for _, path := range paths {
			t.Run(tc.method+" "+path, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(tc.method, path, strings.NewReader(tc.body)))
				if rec.Code != tc.status {
					t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.status, rec.Body.String())
				}
				if rec.Body.Len() == 0 {
					t.Fatal("empty response body")
				}
				if rec.Header().Get("X-Request-ID") == "" {
					t.Error("missing X-Request-ID response header")
				}
				if tc.jsonError {
					var e errorEnvelope
					if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
						t.Errorf("body %q is not a structured JSON error envelope", rec.Body.String())
					}
					if e.Error.RequestID != rec.Header().Get("X-Request-ID") {
						t.Errorf("envelope request_id %q != header %q", e.Error.RequestID, rec.Header().Get("X-Request-ID"))
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
						t.Errorf("error Content-Type = %q, want application/json", ct)
					}
				}
			})
		}
	}
}
