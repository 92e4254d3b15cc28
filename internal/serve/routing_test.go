package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mapsynth/pkg/client"
)

// TestRouting pins the routing contract for every endpoint: known paths
// answer with their documented status under /v1/, wrong methods get a
// structured JSON 405, and unknown paths — including near-misses under
// registered prefixes, under /v1/, and the unversioned spellings that were
// once deprecated aliases — get a structured JSON 404 instead of the mux's
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
		// The request types carry the batch-only "id"; a single call must
		// still refuse it.
		{http.MethodPost, "/autofill", `{"id":"x","column":["Seattle"]}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autocorrect", `{"id":"x","column":["California","CA","WA","Washington"]}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autojoin", `{"id":"x","keys_a":["California"],"keys_b":["CA"]}`, http.StatusBadRequest, true},

		// Out-of-range parameters: JSON 400 with code bad_request.
		{http.MethodPost, "/autofill", `{"column":["x"],"min_coverage":1.5}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autofill", `{"column":["x"],"min_coverage":-0.1}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autofill", `{"column":["x"],"top_k":101}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autocorrect", `{"column":["x"],"top_k":-1}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autocorrect", `{"column":["x"],"min_each":-2}`, http.StatusBadRequest, true},
		{http.MethodPost, "/autojoin", `{"keys_a":["x"],"keys_b":["y"],"top_k":200}`, http.StatusBadRequest, true},
	}
	for _, tc := range cases {
		// A case's path is its endpoint under /v1, where it must answer
		// tc.status; its bare spelling must answer a structured 404. Paths
		// already under /v1, and "/", run once as written.
		type run struct {
			path      string
			status    int
			jsonError bool
		}
		runs := []run{{tc.path, tc.status, tc.jsonError}}
		if !strings.HasPrefix(tc.path, "/v1") && tc.path != "/" {
			runs = []run{{tc.path, http.StatusNotFound, true}, {"/v1" + tc.path, tc.status, tc.jsonError}}
		}
		for _, rn := range runs {
			t.Run(tc.method+" "+rn.path, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(tc.method, rn.path, strings.NewReader(tc.body)))
				if rec.Code != rn.status {
					t.Fatalf("status = %d, want %d (body %q)", rec.Code, rn.status, rec.Body.String())
				}
				if rec.Body.Len() == 0 {
					t.Fatal("empty response body")
				}
				if rec.Header().Get("X-Request-ID") == "" {
					t.Error("missing X-Request-ID response header")
				}
				if rn.jsonError {
					var e client.ErrorEnvelope
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
