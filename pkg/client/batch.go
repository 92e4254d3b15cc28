package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The batch methods stream the NDJSON bulk endpoints: the request lines are
// sent in one body, and each response line is handed to the caller's
// callback as it arrives — in the server's completion order, tagged with
// the zero-based index of the input it answers — so a large batch never
// accumulates client-side. The final trailer is returned once the stream
// ends; a stream severed before its trailer is an error (ErrSevered), which
// is how the protocol distinguishes "all answers arrived" from a dropped
// connection.

// ErrSevered reports a batch stream that ended without the protocol's
// {"done":true} trailer: the connection was cut and an unknown suffix of
// answers was lost.
var ErrSevered = errors.New("client: batch stream severed before trailer")

// BatchTrailer is the final line of a batch response stream.
type BatchTrailer struct {
	Done bool `json:"done"`
	// Results counts per-input lines emitted (answers plus error lines).
	Results int `json:"results"`
	// Errors counts the error lines among them.
	Errors int `json:"errors"`
	// Truncated reports the server abandoned the request body before EOF.
	Truncated bool `json:"truncated,omitempty"`
	// RequestID ties the stream to server logs.
	RequestID string `json:"request_id,omitempty"`
}

// BatchLine is one per-input answer of a batch stream. Exactly one of Err
// and Response is meaningful: Err is non-nil when the server answered this
// input with a row-level error.
type BatchLine[Resp any] struct {
	// Index is the zero-based position of the input line this answers.
	Index int
	// ID echoes the input's id, when one was set.
	ID string
	// Err is the row's structured error, nil on success.
	Err *APIError
	// Response is the row's answer when Err is nil.
	Response Resp
}

// BatchAutoFill streams reqs through POST /v1/batch/autofill, invoking fn
// for every answer line in arrival order. A non-nil error from fn aborts
// the stream and is returned verbatim. The trailer is non-nil exactly when
// the error is nil.
func (c *Client) BatchAutoFill(ctx context.Context, reqs []AutoFillRequest, fn func(BatchLine[AutoFillResponse]) error) (*BatchTrailer, error) {
	return batchStream(c, ctx, v1Prefix+"/batch/autofill", reqs, fn)
}

// BatchAutoCorrect streams reqs through POST /v1/batch/autocorrect; see
// BatchAutoFill for the callback contract.
func (c *Client) BatchAutoCorrect(ctx context.Context, reqs []AutoCorrectRequest, fn func(BatchLine[AutoCorrectResponse]) error) (*BatchTrailer, error) {
	return batchStream(c, ctx, v1Prefix+"/batch/autocorrect", reqs, fn)
}

// BatchAutoJoin streams reqs through POST /v1/batch/autojoin; see
// BatchAutoFill for the callback contract.
func (c *Client) BatchAutoJoin(ctx context.Context, reqs []AutoJoinRequest, fn func(BatchLine[AutoJoinResponse]) error) (*BatchTrailer, error) {
	return batchStream(c, ctx, v1Prefix+"/batch/autojoin", reqs, fn)
}

// batchStream is the shared driver: NDJSON-encode the inputs, retry
// overloaded admission rejections, then scan the response line by line.
func batchStream[Req, Resp any](c *Client, ctx context.Context, path string, reqs []Req, fn func(BatchLine[Resp]) error) (*BatchTrailer, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range reqs {
		if err := enc.Encode(reqs[i]); err != nil {
			return nil, fmt.Errorf("client: encoding batch line %d: %w", i, err)
		}
	}

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
		// An error body is small; bound the read against misbehaving
		// intermediaries.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		aerr := parseAPIError(resp, data)
		if aerr.Status == http.StatusTooManyRequests && attempt < c.retries {
			if err := c.backoff(ctx, aerr.RetryAfter); err != nil {
				// As in call: a cancellation mid-wait surfaces as ctx's
				// error, not as the stale 429.
				return nil, fmt.Errorf("client: interrupted waiting to retry %s: %w", path, err)
			}
			continue
		}
		return nil, aerr
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), maxBatchLineBytes)
	var trailer *BatchTrailer
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if trailer != nil {
			return nil, fmt.Errorf("client: line after batch trailer: %q", line)
		}
		// The trailer is the only line carrying "done"; everything else is
		// a per-input answer or row error.
		var probe struct {
			RowHead
			Done  bool       `json:"done"`
			Error *ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: bad batch line: %w", err)
		}
		if probe.Done {
			trailer = &BatchTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return nil, fmt.Errorf("client: bad batch trailer: %w", err)
			}
			continue
		}
		out := BatchLine[Resp]{Index: probe.Index, ID: probe.ID}
		if probe.Error != nil {
			// Row errors arrive inside a 200 stream.
			out.Err = probe.Error.apiError(http.StatusOK, resp.Header.Get("X-Request-ID"))
		} else if err := json.Unmarshal(line, &out.Response); err != nil {
			return nil, fmt.Errorf("client: bad batch result line: %w", err)
		}
		if err := fn(out); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading batch stream: %w", err)
	}
	if trailer == nil {
		return nil, ErrSevered
	}
	return trailer, nil
}

// maxBatchLineBytes bounds one NDJSON response line (16 MiB) — matching the
// generous bound the server applies to its own streams.
const maxBatchLineBytes = 16 << 20
