package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Live ingestion: Corpus.IngestTables streams tables into the server's
// durable append log at POST /v1/corpora/{name}/tables, where the
// incremental synthesis engine folds them into new snapshot versions.

// IngestColumn is one column of an ingested table.
type IngestColumn struct {
	Name   string   `json:"name,omitempty"`
	Values []string `json:"values"`
}

// IngestTable is one table streamed to the ingest endpoint.
type IngestTable struct {
	Domain  string         `json:"domain,omitempty"`
	Title   string         `json:"title,omitempty"`
	Columns []IngestColumn `json:"columns"`
}

// IngestLine is one per-input answer of an ingest stream: the durable LSN
// assigned to an accepted table, or the row's validation error.
type IngestLine struct {
	// Index is the zero-based position of the input line this answers.
	Index int `json:"index"`
	// LSN is the log sequence number assigned to an accepted table; tables
	// with LSN <= the corpus's applied LSN are reflected in the live state.
	LSN int64 `json:"lsn"`
	// Err is the row's structured error, nil on acceptance.
	Err *APIError `json:"-"`
}

// IngestTrailer is the final line of an ingest response stream.
type IngestTrailer struct {
	Done     bool   `json:"done"`
	Corpus   string `json:"corpus"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	// Truncated reports the server abandoned the request body before EOF;
	// accepted rows are still durable.
	Truncated bool `json:"truncated,omitempty"`
	// HeadLSN / AppliedLSN report the corpus's staleness at trailer time.
	HeadLSN    int64 `json:"head_lsn"`
	AppliedLSN int64 `json:"applied_lsn"`
	// Synthesis is "applied" (Wait and the new version is live), "queued"
	// (an asynchronous run will fold the rows in), or "error".
	Synthesis      string `json:"synthesis"`
	SynthesisError string `json:"synthesis_error,omitempty"`
	// Version is the corpus version live at trailer time.
	Version   int64  `json:"version"`
	RequestID string `json:"request_id,omitempty"`
}

// IngestOptions tunes one IngestTables call.
type IngestOptions struct {
	// Wait blocks the request until synthesis has folded the accepted rows
	// into a live version (trailer Synthesis "applied"); otherwise
	// synthesis is kicked asynchronously and the trailer says "queued".
	Wait bool
}

// IngestTables streams tables into the default corpus's ingest log; see
// Corpus.IngestTables.
func (c *Client) IngestTables(ctx context.Context, tables []IngestTable, opts IngestOptions, fn func(IngestLine) error) (*IngestTrailer, error) {
	return c.Corpus(DefaultCorpus).IngestTables(ctx, tables, opts, fn)
}

// IngestTables streams tables into this corpus's durable ingest log,
// invoking fn (which may be nil) for every acknowledgement line in arrival
// order. Acceptance means durability: each acknowledged table has been
// fsynced to the server's append log and will be folded into a snapshot
// version even across a server restart. A non-nil error from fn aborts the
// stream and is returned verbatim. The trailer is non-nil exactly when the
// error is nil; a stream severed before its trailer returns ErrSevered.
func (cc *Corpus) IngestTables(ctx context.Context, tables []IngestTable, opts IngestOptions, fn func(IngestLine) error) (*IngestTrailer, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range tables {
		if err := enc.Encode(tables[i]); err != nil {
			return nil, fmt.Errorf("client: encoding ingest line %d: %w", i, err)
		}
	}
	path := cc.prefix + "/tables"
	if opts.Wait {
		path += "?wait=1"
	}

	c := cc.c
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		var err error
		resp, err = c.send(ctx, http.MethodPost, path, body.Bytes(), "application/x-ndjson")
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		aerr := parseAPIError(resp, data)
		if aerr.Status == http.StatusTooManyRequests && attempt < c.retries {
			if err := c.backoff(ctx, aerr.RetryAfter); err != nil {
				return nil, fmt.Errorf("client: interrupted waiting to retry %s: %w", path, err)
			}
			continue
		}
		return nil, aerr
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), maxBatchLineBytes)
	var trailer *IngestTrailer
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if trailer != nil {
			return nil, fmt.Errorf("client: line after ingest trailer: %q", line)
		}
		var probe struct {
			IngestLine
			Done  bool       `json:"done"`
			Error *ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: bad ingest line: %w", err)
		}
		if probe.Done {
			trailer = &IngestTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return nil, fmt.Errorf("client: bad ingest trailer: %w", err)
			}
			continue
		}
		out := probe.IngestLine
		if probe.Error != nil {
			// Row errors arrive inside a 200 stream.
			out.Err = probe.Error.apiError(http.StatusOK, resp.Header.Get("X-Request-ID"))
		}
		if fn != nil {
			if err := fn(out); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading ingest stream: %w", err)
	}
	if trailer == nil {
		return nil, ErrSevered
	}
	return trailer, nil
}
