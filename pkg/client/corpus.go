package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// v1Prefix is the unscoped canonical path prefix; corpus-scoped requests
// use /v1/corpora/{name} instead.
const v1Prefix = "/v1"

// DefaultCorpus is the server's always-present corpus — the one the
// unscoped Client methods target.
const DefaultCorpus = "default"

// Corpus is a handle scoped to one named corpus: the same typed query
// methods as Client, routed at /v1/corpora/{name}/..., plus the corpus's
// lifecycle administration (load, activate, rollback, delete). Handles are
// cheap; create them per call site or keep them — they share the parent
// Client's transport, retry policy and request-ID generator.
//
//	tickers := c.Corpus("tickers")
//	resp, err := tickers.Lookup(ctx, "MSFT")
type Corpus struct {
	c      *Client
	name   string
	prefix string
}

// Corpus returns a handle scoped to the named corpus. The name is not
// validated client-side; an unknown name surfaces as an *APIError with
// code "corpus_not_found" on first use.
func (c *Client) Corpus(name string) *Corpus {
	return &Corpus{c: c, name: name, prefix: "/v1/corpora/" + url.PathEscape(name)}
}

// Name returns the corpus name this handle is scoped to.
func (cc *Corpus) Name() string { return cc.name }

// ---- scoped query methods ----

// Lookup answers a single-key query against this corpus.
func (cc *Corpus) Lookup(ctx context.Context, key string) (*LookupResponse, error) {
	return cc.c.lookupAt(ctx, cc.prefix, key)
}

// AutoFill answers one auto-fill column query against this corpus.
func (cc *Corpus) AutoFill(ctx context.Context, req AutoFillRequest) (*AutoFillResponse, error) {
	return cc.c.autoFillAt(ctx, cc.prefix, req)
}

// AutoCorrect answers one auto-correct column query against this corpus.
func (cc *Corpus) AutoCorrect(ctx context.Context, req AutoCorrectRequest) (*AutoCorrectResponse, error) {
	return cc.c.autoCorrectAt(ctx, cc.prefix, req)
}

// AutoJoin answers one key-column join query against this corpus.
func (cc *Corpus) AutoJoin(ctx context.Context, req AutoJoinRequest) (*AutoJoinResponse, error) {
	return cc.c.autoJoinAt(ctx, cc.prefix, req)
}

// BatchAutoFill streams reqs through this corpus's batch/autofill
// endpoint; see Client.BatchAutoFill for the callback contract.
func (cc *Corpus) BatchAutoFill(ctx context.Context, reqs []AutoFillRequest, fn func(BatchLine[AutoFillResponse]) error) (*BatchTrailer, error) {
	return batchStream(cc.c, ctx, cc.prefix+"/batch/autofill", reqs, fn)
}

// BatchAutoCorrect streams reqs through this corpus's batch/autocorrect
// endpoint.
func (cc *Corpus) BatchAutoCorrect(ctx context.Context, reqs []AutoCorrectRequest, fn func(BatchLine[AutoCorrectResponse]) error) (*BatchTrailer, error) {
	return batchStream(cc.c, ctx, cc.prefix+"/batch/autocorrect", reqs, fn)
}

// BatchAutoJoin streams reqs through this corpus's batch/autojoin
// endpoint.
func (cc *Corpus) BatchAutoJoin(ctx context.Context, reqs []AutoJoinRequest, fn func(BatchLine[AutoJoinResponse]) error) (*BatchTrailer, error) {
	return batchStream(cc.c, ctx, cc.prefix+"/batch/autojoin", reqs, fn)
}

// Stats reports this corpus's serving statistics (the batch section is
// server-wide — the limiter is shared across corpora).
func (cc *Corpus) Stats(ctx context.Context) (*Stats, error) {
	return cc.c.statsAt(ctx, cc.prefix)
}

// ---- lifecycle administration ----

// Corpora lists every corpus the server holds, with version metadata,
// sorted by name.
func (c *Client) Corpora(ctx context.Context) ([]CorpusInfo, error) {
	var resp CorpusList
	if err := c.call(ctx, http.MethodGet, "/v1/corpora", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Corpora, nil
}

// Get fetches this corpus's metadata (version, snapshot, history ring).
func (cc *Corpus) Get(ctx context.Context) (*CorpusInfo, error) {
	var info CorpusInfo
	if err := cc.c.call(ctx, http.MethodGet, cc.prefix, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Put loads-or-replaces this corpus from a snapshot path on the server's
// filesystem. An empty Snapshot re-reads the corpus's current path (a
// per-corpus hot reload). The replaced state stays on the rollback ring.
func (cc *Corpus) Put(ctx context.Context, req PutCorpusRequest) (*PutCorpusResponse, error) {
	body, err := marshalBody(req)
	if err != nil {
		return nil, err
	}
	var resp PutCorpusResponse
	if err := cc.c.call(ctx, http.MethodPut, cc.prefix, body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Upload loads-or-replaces this corpus from raw snapshot bytes — for
// clients that cannot place files on the server's filesystem. The
// resulting state has no server-side path, so it can only be replaced by
// another Put/Upload, not re-read.
func (cc *Corpus) Upload(ctx context.Context, snapshot []byte) (*PutCorpusResponse, error) {
	var resp PutCorpusResponse
	if err := cc.c.callRaw(ctx, http.MethodPut, cc.prefix, snapshot, "application/octet-stream", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Activate makes a historical version of this corpus live again; the
// displaced live state goes onto the rollback ring, so an activate is
// always reversible with Rollback.
func (cc *Corpus) Activate(ctx context.Context, version int64) (*VersionSwapResponse, error) {
	body, err := marshalBody(map[string]int64{"version": version})
	if err != nil {
		return nil, err
	}
	var resp VersionSwapResponse
	if err := cc.c.call(ctx, http.MethodPost, cc.prefix+"/activate", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Rollback re-activates the previously live version — the one-call undo of
// the last Put/Upload/Activate.
func (cc *Corpus) Rollback(ctx context.Context) (*VersionSwapResponse, error) {
	var resp VersionSwapResponse
	if err := cc.c.call(ctx, http.MethodPost, cc.prefix+"/rollback", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Delete removes this corpus from the server. The default corpus cannot be
// deleted.
func (cc *Corpus) Delete(ctx context.Context) error {
	return cc.c.call(ctx, http.MethodDelete, cc.prefix, nil, nil)
}

// Snapshot downloads the corpus's live state as v2 snapshot bytes —
// exactly the body Upload accepts on another node — along with the source
// version (the X-Corpus-Version header). This is the wire primitive of
// snapshot-shipped replication: fetch from the freshest replica, Upload to
// the rest.
func (cc *Corpus) Snapshot(ctx context.Context) ([]byte, int64, error) {
	resp, err := cc.c.send(ctx, http.MethodGet, cc.prefix+"/snapshot", nil, "")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("client: reading snapshot body: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, 0, parseAPIError(resp, data)
	}
	version, _ := strconv.ParseInt(resp.Header.Get("X-Corpus-Version"), 10, 64)
	return data, version, nil
}

func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return body, nil
}
