package serve

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mapsynth/pkg/client"
)

// docs/api.md is part of the contract: its JSON examples must decode into
// the pkg/client types that declare them, so a renamed or dropped field
// breaks a test, not a reader.

// docBlock is one fenced code block of docs/api.md with the heading it
// sits under.
type docBlock struct {
	heading, lang, text string
}

func apiDoc(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func apiDocBlocks(t testing.TB) []docBlock {
	var blocks []docBlock
	var heading string
	var cur *docBlock
	sc := bufio.NewScanner(bytes.NewReader(apiDoc(t)))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "```") && cur == nil:
			cur = &docBlock{heading: heading, lang: strings.TrimPrefix(line, "```")}
		case strings.HasPrefix(line, "```"):
			blocks = append(blocks, *cur)
			cur = nil
		case cur != nil:
			cur.text += line + "\n"
		case strings.HasPrefix(line, "#"):
			heading = strings.TrimSpace(strings.TrimLeft(line, "#"))
		}
	}
	return blocks
}

// docRequest is one request body shown in a docs/api.md shell example.
type docRequest struct {
	path, body string
}

var (
	curlData    = regexp.MustCompile(`(?s)curl [^\n]*?(/v1/[^\s'?]*)[^\n]*? -d '(.*?)'`)
	curlHeredoc = regexp.MustCompile(`(?s)curl [^\n]*?(/v1/[^\s'?]*)[^\n]*?<<'EOF'\n(.*?)\nEOF`)
	curlKey     = regexp.MustCompile(`/v1/lookup\?key=([^'\s]+)`)
)

// apiDocRequests extracts every request body of the shell examples (one
// per line for NDJSON heredocs) and every lookup key.
func apiDocRequests(t testing.TB) (reqs []docRequest, keys []string) {
	for _, b := range apiDocBlocks(t) {
		if b.lang != "sh" {
			continue
		}
		for _, m := range curlData.FindAllStringSubmatch(b.text, -1) {
			reqs = append(reqs, docRequest{m[1], m[2]})
		}
		for _, m := range curlHeredoc.FindAllStringSubmatch(b.text, -1) {
			for _, line := range strings.Split(m[2], "\n") {
				reqs = append(reqs, docRequest{m[1], line})
			}
		}
		for _, m := range curlKey.FindAllStringSubmatch(b.text, -1) {
			key, err := url.QueryUnescape(m[1])
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
	}
	return reqs, keys
}

// docRequestType returns a pointer to the pkg/client type a request body
// for path decodes into. POST /v1/tenants has no SDK type.
func docRequestType(path string) any {
	switch {
	case strings.HasSuffix(path, "/autofill"):
		return &client.AutoFillRequest{}
	case strings.HasSuffix(path, "/autocorrect"):
		return &client.AutoCorrectRequest{}
	case strings.HasSuffix(path, "/autojoin"):
		return &client.AutoJoinRequest{}
	case strings.HasSuffix(path, "/tables"):
		return &client.IngestTable{}
	case strings.HasPrefix(path, "/v1/corpora/"):
		return &client.PutCorpusRequest{}
	}
	return &map[string]any{}
}

// apiDocExamples lists, per docs/api.md heading, the type each ```json
// block under it decodes into, in order. The tenants reload answer has no
// SDK type.
var apiDocExamples = map[string][]func() any{
	"Errors":                           {func() any { return &client.ErrorEnvelope{} }},
	"GET /v1/lookup?key=K":             {func() any { return &client.LookupResponse{} }},
	"POST /v1/autofill":                {func() any { return &client.AutoFillResponse{} }, func() any { return &client.AutoFillResponse{} }},
	"POST /v1/autocorrect":             {func() any { return &client.AutoCorrectResponse{} }},
	"POST /v1/autojoin":                {func() any { return &client.AutoJoinResponse{} }},
	"Protocol":                         {func() any { return &client.BatchTrailer{} }},
	"Multi-tenant QoS":                 {func() any { return &map[string]any{} }},
	"GET /v1/corpora":                  {func() any { return &client.CorpusList{} }},
	"PUT /v1/corpora/{name}":           {func() any { return &client.PutCorpusResponse{} }},
	"GET /v1/healthz":                  {func() any { return &client.Health{} }},
	"GET /v1/stats":                    {func() any { return &client.Stats{} }},
	"POST /v1/reload":                  {func() any { return &client.ReloadResponse{} }},
	"POST /v1/corpora/{name}/activate": {func() any { return &client.VersionSwapResponse{} }},
}

// TestAPIDocExamples decodes every ```json example of docs/api.md, and
// every request body of its shell examples, into the declaring pkg/client
// type, refusing unknown fields.
func TestAPIDocExamples(t *testing.T) {
	seen := map[string]int{}
	for _, b := range apiDocBlocks(t) {
		if b.lang != "json" {
			continue
		}
		types := apiDocExamples[b.heading]
		k := seen[b.heading]
		seen[b.heading]++
		if k >= len(types) {
			t.Errorf("%q: json example %d has no declared type in apiDocExamples", b.heading, k+1)
			continue
		}
		if err := decodeStrict([]byte(b.text), types[k]()); err != nil {
			t.Errorf("%q: json example %d: %v\n%s", b.heading, k+1, err, b.text)
		}
	}
	for heading, types := range apiDocExamples {
		if seen[heading] != len(types) {
			t.Errorf("%q: %d json examples, want %d", heading, seen[heading], len(types))
		}
	}

	reqs, keys := apiDocRequests(t)
	paths := map[string]bool{}
	for _, r := range reqs {
		paths[r.path] = true
		if err := decodeStrict([]byte(r.body), docRequestType(r.path)); err != nil {
			t.Errorf("request example for %s: %v\n%s", r.path, err, r.body)
		}
	}
	for _, p := range []string{"/v1/autofill", "/v1/autocorrect", "/v1/autojoin", "/v1/batch/autofill", "/v1/corpora/default/tables"} {
		if !paths[p] {
			t.Errorf("no request example for %s found in docs/api.md", p)
		}
	}
	if len(keys) == 0 {
		t.Error("no lookup key example found in docs/api.md")
	}
}

// FuzzQueryDecoders sends arbitrary ?key= values and bodies through
// Handler() to the four query endpoints. Whatever arrives, the answer is
// never a 5xx, is JSON, and decodes strictly into the endpoint's
// pkg/client response type — or, for a refusal, into the error envelope.
// The seeds are docs/api.md's request examples.
func FuzzQueryDecoders(f *testing.F) {
	reqs, keys := apiDocRequests(f)
	for _, key := range keys {
		f.Add(key, []byte(`{"column":[]}`))
	}
	for _, r := range reqs {
		if strings.HasPrefix(r.path, "/v1/auto") || strings.HasPrefix(r.path, "/v1/batch/auto") {
			f.Add("California", []byte(r.body))
		}
	}
	f.Add("", []byte(`{"id":"x","column":["Seattle"],"top_k":101}`))
	f.Add(" \x00é", []byte(`{"keys_a":["California"],"keys_b":["CA"],"min_coverage":-1}`))
	h := NewFromMappings(testMappings(), Options{CacheSize: 64}).Handler()
	f.Fuzz(func(t *testing.T, key string, body []byte) {
		check := func(method, path string, body []byte, ok any) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %s answered %d: %s", method, path, rec.Code, rec.Body.Bytes())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s %s: Content-Type %q", method, path, ct)
			}
			into := ok
			if rec.Code != http.StatusOK {
				into = &client.ErrorEnvelope{}
			}
			if err := decodeStrict(rec.Body.Bytes(), into); err != nil {
				t.Fatalf("%s %s answered %d with %s: %v", method, path, rec.Code, rec.Body.Bytes(), err)
			}
		}
		check(http.MethodGet, "/v1/lookup?key="+url.QueryEscape(key), nil, &client.LookupResponse{})
		check(http.MethodPost, "/v1/autofill", body, &client.AutoFillResponse{})
		check(http.MethodPost, "/v1/autocorrect", body, &client.AutoCorrectResponse{})
		check(http.MethodPost, "/v1/autojoin", body, &client.AutoJoinResponse{})
	})
}
