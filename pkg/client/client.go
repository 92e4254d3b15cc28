// Package client is the Go SDK for the mapping service's v1 HTTP API
// (cmd/serve). Its request/response types, error codes and envelope are
// the v1 wire schema, declared once: the server, the cluster coordinator
// and the ingest status encode these same types, and tests decode every
// live answer and every docs/api.md example into them with unknown fields
// refused. The SDK streams the NDJSON batch endpoints through an iterator
// callback, retries overloaded (429) responses honoring the server's
// Retry-After, and propagates a per-request X-Request-ID so client-side
// failures can be tied to server logs. It imports only the standard
// library.
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.AutoFill(ctx, client.AutoFillRequest{
//	    Column:   []string{"San Francisco", "Seattle"},
//	    Examples: []client.Example{{Left: "San Francisco", Right: "California"}},
//	})
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client talks to one mapping service. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	maxWait time.Duration
	genID   func() string
	tenant  string
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (tests inject the
// httptest client; production callers tune timeouts and transports).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetries sets how many times an overloaded (429) response is retried
// before being returned as an *APIError; 0 disables retrying. The default
// is 2.
func WithRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithMaxRetryWait caps how long one Retry-After advertisement is honored
// before the client gives up waiting (default 5s) — a server advertising an
// hour should fail fast client-side instead of hanging a request.
func WithMaxRetryWait(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.maxWait = d
		}
	}
}

// WithTenant sets the X-Tenant header on every request, attributing the
// client's traffic to one tenant for quota and weighted-fair scheduling.
// The name must match [A-Za-z0-9._-]{1,64} (the server rejects others with
// a 400); empty means the server's "default" tenant.
func WithTenant(name string) Option {
	return func(c *Client) { c.tenant = name }
}

// WithRequestIDs substitutes the X-Request-ID generator, e.g. to prefix IDs
// with a job name so server logs attribute traffic.
func WithRequestIDs(gen func() string) Option {
	return func(c *Client) {
		if gen != nil {
			c.genID = gen
		}
	}
}

// New returns a Client for the service rooted at baseURL, e.g.
// "http://localhost:8080". The v1 prefix is implied; do not include it.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 2,
		maxWait: 5 * time.Second,
		genID:   newRequestID,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ---- endpoint methods ----
//
// The methods on Client target the default corpus through the unscoped
// /v1 paths; Corpus(name) returns a handle with the same methods scoped to
// one named corpus. Both funnel through the prefix-parameterized helpers
// below, so the two surfaces cannot drift.

// Lookup answers a single-key query with provenance.
func (c *Client) Lookup(ctx context.Context, key string) (*LookupResponse, error) {
	return c.lookupAt(ctx, v1Prefix, key)
}

func (c *Client) lookupAt(ctx context.Context, prefix, key string) (*LookupResponse, error) {
	var resp LookupResponse
	if err := c.call(ctx, http.MethodGet, prefix+"/lookup?key="+url.QueryEscape(key), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// AutoFill answers one auto-fill column query (the paper's Table 4).
func (c *Client) AutoFill(ctx context.Context, req AutoFillRequest) (*AutoFillResponse, error) {
	return c.autoFillAt(ctx, v1Prefix, req)
}

func (c *Client) autoFillAt(ctx context.Context, prefix string, req AutoFillRequest) (*AutoFillResponse, error) {
	var resp AutoFillResponse
	if err := c.post(ctx, prefix+"/autofill", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// AutoCorrect answers one auto-correct column query (Table 3).
func (c *Client) AutoCorrect(ctx context.Context, req AutoCorrectRequest) (*AutoCorrectResponse, error) {
	return c.autoCorrectAt(ctx, v1Prefix, req)
}

func (c *Client) autoCorrectAt(ctx context.Context, prefix string, req AutoCorrectRequest) (*AutoCorrectResponse, error) {
	var resp AutoCorrectResponse
	if err := c.post(ctx, prefix+"/autocorrect", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// AutoJoin answers one key-column join query (Table 5).
func (c *Client) AutoJoin(ctx context.Context, req AutoJoinRequest) (*AutoJoinResponse, error) {
	return c.autoJoinAt(ctx, v1Prefix, req)
}

func (c *Client) autoJoinAt(ctx context.Context, prefix string, req AutoJoinRequest) (*AutoJoinResponse, error) {
	var resp AutoJoinResponse
	if err := c.post(ctx, prefix+"/autojoin", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz reports liveness and per-corpus readiness metadata.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Stats reports the default corpus's serving statistics.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	return c.statsAt(ctx, v1Prefix)
}

func (c *Client) statsAt(ctx context.Context, prefix string) (*Stats, error) {
	var s Stats
	if err := c.call(ctx, http.MethodGet, prefix+"/stats", nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Reload atomically replaces the serving state: load a different snapshot
// (Snapshot set), re-read the current one (zero request), or re-run the
// synthesis pipeline in-process (Rebuild true).
func (c *Client) Reload(ctx context.Context, req ReloadRequest) (*ReloadResponse, error) {
	var resp ReloadResponse
	if err := c.post(ctx, "/v1/reload", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ---- transport ----

func (c *Client) post(ctx context.Context, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	return c.call(ctx, http.MethodPost, path, body, out)
}

// call issues one JSON request, retrying overloaded responses per the
// client's retry budget, and decodes a 2xx body into out.
func (c *Client) call(ctx context.Context, method, path string, body []byte, out any) error {
	return c.callRaw(ctx, method, path, body, "application/json", out)
}

// callRaw is call with an explicit request Content-Type (snapshot uploads
// send application/octet-stream).
func (c *Client) callRaw(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, method, path, body, contentType)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("client: reading response: %w", err)
		}
		if resp.StatusCode/100 == 2 {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decoding %s response: %w", path, err)
			}
			if meta, ok := out.(requestIDSetter); ok {
				meta.setRequestID(resp.Header.Get("X-Request-ID"))
			}
			return nil
		}
		aerr := parseAPIError(resp, data)
		if aerr.Status == http.StatusTooManyRequests && attempt < c.retries {
			if err := c.backoff(ctx, aerr.RetryAfter); err != nil {
				// ctx died mid-wait: surface the cancellation (errors.Is
				// context.Canceled / DeadlineExceeded) rather than the 429
				// the caller no longer cares about.
				return fmt.Errorf("client: interrupted waiting to retry %s: %w", path, err)
			}
			continue
		}
		return aerr
	}
}

func (c *Client) send(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Request-ID", c.genID())
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return resp, nil
}

// backoff sleeps for the server-advertised delay, capped by WithMaxRetryWait
// and cancelled by ctx.
func (c *Client) backoff(ctx context.Context, retryAfter time.Duration) error {
	if retryAfter <= 0 {
		retryAfter = 100 * time.Millisecond
	}
	if retryAfter > c.maxWait {
		retryAfter = c.maxWait
	}
	t := time.NewTimer(retryAfter)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
