package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mapsynth/internal/apps"
	"mapsynth/internal/qos"
	"mapsynth/pkg/client"
)

// postNDJSON sends body to url and parses the NDJSON response into one
// RawMessage per line.
func postNDJSON(t *testing.T, h http.Handler, url, body string) (*httptest.ResponseRecorder, []json.RawMessage) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	h.ServeHTTP(rec, req)
	var lines []json.RawMessage
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		lines = append(lines, json.RawMessage(append([]byte{}, sc.Bytes()...)))
	}
	return rec, lines
}

// rowError extracts the structured error payload of one batch row line,
// returning ("", "") when the row is not an error line.
func rowError(row map[string]any) (code, msg string) {
	e, _ := row["error"].(map[string]any)
	if e == nil {
		return "", ""
	}
	code, _ = e["code"].(string)
	msg, _ = e["message"].(string)
	return code, msg
}

// batchParts splits a parsed NDJSON response into per-row lines (keyed by
// index) and the trailer, failing on duplicates or a missing trailer.
func batchParts(t *testing.T, lines []json.RawMessage) (map[int]map[string]any, client.BatchTrailer) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty NDJSON response")
	}
	var trailer client.BatchTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		t.Fatalf("last line is not a trailer: %s", lines[len(lines)-1])
	}
	rows := make(map[int]map[string]any)
	for _, ln := range lines[:len(lines)-1] {
		var m map[string]any
		if err := json.Unmarshal(ln, &m); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", ln, err)
		}
		idx, ok := m["index"].(float64)
		if !ok {
			t.Fatalf("line without index: %s", ln)
		}
		if _, dup := rows[int(idx)]; dup {
			t.Fatalf("duplicate line for index %d", int(idx))
		}
		rows[int(idx)] = m
	}
	return rows, trailer
}

// TestBatchAutoFillStream asserts the streaming contract: one line per
// input (any order, tagged by index), ids echoed, per-line results equal to
// the single endpoint, and a correct trailer.
func TestBatchAutoFillStream(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	h := srv.Handler()

	var body strings.Builder
	inputs := [][]string{
		{"San Francisco", "Seattle", "Portland"},
		{"California", "Washington", "Oregon", "Texas"},
		{"unknown", "values", "only"},
	}
	for i, col := range inputs {
		line, _ := json.Marshal(map[string]any{
			"id":           fmt.Sprintf("col-%d", i),
			"column":       col,
			"min_coverage": 0.8,
		})
		body.Write(line)
		body.WriteByte('\n')
	}

	rec, lines := postNDJSON(t, h, "/v1/batch/autofill", body.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	rows, trailer := batchParts(t, lines)
	if trailer.Results != len(inputs) || trailer.Errors != 0 || trailer.Truncated {
		t.Fatalf("trailer = %+v", trailer)
	}
	for i, col := range inputs {
		row := rows[i]
		if row == nil {
			t.Fatalf("no line for input %d", i)
		}
		if row["id"] != fmt.Sprintf("col-%d", i) {
			t.Errorf("row %d id = %v", i, row["id"])
		}
		// Parity with the single endpoint.
		var single map[string]any
		postJSON(t, h, "/v1/autofill", map[string]any{"column": col, "min_coverage": 0.8}, &single)
		for k, v := range single {
			if !reflect.DeepEqual(row[k], v) {
				t.Errorf("row %d field %q = %v, single endpoint = %v", i, k, row[k], v)
			}
		}
	}
}

func TestBatchAutoCorrectAndJoinStream(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	h := srv.Handler()

	rec, lines := postNDJSON(t, h, "/v1/batch/autocorrect",
		`{"column":["California","Washington","OR","Texas","NV"]}`+"\n"+
			`{"column":["California","Washington"]}`+"\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	rows, trailer := batchParts(t, lines)
	if trailer.Results != 2 || trailer.Errors != 0 {
		t.Fatalf("autocorrect trailer = %+v", trailer)
	}
	var single map[string]any
	postJSON(t, h, "/v1/autocorrect", map[string]any{"column": []string{"California", "Washington", "OR", "Texas", "NV"}}, &single)
	for k, v := range single {
		if !reflect.DeepEqual(rows[0][k], v) {
			t.Errorf("autocorrect row 0 field %q = %v, single = %v", k, rows[0][k], v)
		}
	}

	rec, lines = postNDJSON(t, h, "/v1/batch/autojoin",
		`{"keys_a":["California","Washington","Oregon","Texas"],"keys_b":["TX","CA","WA","OR","ZZ"]}`+"\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	rows, trailer = batchParts(t, lines)
	if trailer.Results != 1 || trailer.Errors != 0 {
		t.Fatalf("autojoin trailer = %+v", trailer)
	}
	single = nil
	postJSON(t, h, "/v1/autojoin", map[string]any{
		"keys_a": []string{"California", "Washington", "Oregon", "Texas"},
		"keys_b": []string{"TX", "CA", "WA", "OR", "ZZ"},
	}, &single)
	for k, v := range single {
		if !reflect.DeepEqual(rows[0][k], v) {
			t.Errorf("autojoin row 0 field %q = %v, single = %v", k, rows[0][k], v)
		}
	}
}

// TestBatchErrorLines: validation failures become per-row error lines, a
// malformed JSON line ends the stream with truncated=true, and everything
// is still accounted for in the trailer — nothing disappears silently.
func TestBatchErrorLines(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	h := srv.Handler()

	// Row 1 is a validation error; rows 0 and 2 still answer.
	rec, lines := postNDJSON(t, h, "/v1/batch/autofill",
		`{"id":"a","column":["Seattle"]}`+"\n"+
			`{"id":"b","column":[]}`+"\n"+
			`{"id":"c","column":["Portland"]}`+"\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	rows, trailer := batchParts(t, lines)
	if trailer.Results != 3 || trailer.Errors != 1 || trailer.Truncated {
		t.Fatalf("trailer = %+v", trailer)
	}
	if code, msg := rowError(rows[1]); code != string(client.CodeBadRequest) || msg == "" {
		t.Errorf("row 1 = %v, want a structured bad_request error line", rows[1])
	}
	if rows[1]["id"] != "b" {
		t.Errorf("error line id = %v, want b", rows[1]["id"])
	}
	if _, hasErr := rows[0]["error"]; hasErr {
		t.Errorf("row 0 unexpectedly errored: %v", rows[0])
	}

	// Malformed second line: first row answers, stream reports truncation.
	rec, lines = postNDJSON(t, h, "/v1/batch/autofill",
		`{"column":["Seattle"]}`+"\n"+`{not json`+"\n"+`{"column":["Portland"]}`+"\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	rows, trailer = batchParts(t, lines)
	if !trailer.Truncated || trailer.Errors != 1 || trailer.Results != 2 {
		t.Fatalf("trailer after bad line = %+v", trailer)
	}
	if _, msg := rowError(rows[1]); !strings.Contains(msg, "bad request line") {
		t.Errorf("decode error line = %v", rows[1])
	}

	// Unknown fields fail loudly, like the single endpoints.
	_, lines = postNDJSON(t, h, "/v1/batch/autofill", `{"colunm":["Seattle"]}`+"\n")
	_, trailer = batchParts(t, lines)
	if !trailer.Truncated {
		t.Errorf("unknown field accepted: trailer = %+v", trailer)
	}
}

// TestAnswerRowRecoversPanic: a panicking row must become an error line,
// not kill the process — row work runs on goroutines outside the HTTP
// server's per-connection recovery.
func TestAnswerRowRecoversPanic(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	st := srv.State()
	v, ok := answerRow(context.Background(), st, st.session, 3, "boom", func(context.Context, *State, *apps.Session, int, string) (any, bool) {
		panic("index exploded")
	})
	if ok {
		t.Fatal("panicking row reported success")
	}
	el, isErr := v.(rowErrorLine)
	if !isErr || el.Index != 3 || el.Error.Code != client.CodeInternal || !strings.Contains(el.Error.Message, "index exploded") {
		t.Fatalf("recovered line = %#v", v)
	}
}

func TestBatchMethodAndRouting(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/batch/autofill", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch/autofill = %d, want 405", rec.Code)
	}
	var e client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != client.CodeMethodNotAllowed {
		t.Errorf("405 body not a structured JSON error: %q", rec.Body.String())
	}
}

// TestBatchLimiterSaturation is the satellite acceptance test: with a
// request bound of 1 and a held-open in-flight batch, concurrent batches
// are rejected with 429 + Retry-After; after the first completes, accepted
// work is fully answered — some requests throttled, none dropped silently.
func TestBatchLimiterSaturation(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	srv.batch = newBatchLimiter(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold one batch open: send a first line, keep the body unclosed so the
	// request stays in flight.
	pr, pw := io.Pipe()
	firstDone := make(chan error, 1)
	firstBody := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/batch/autofill", "application/x-ndjson", pr)
		if err != nil {
			firstDone <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		firstBody <- b
		firstDone <- err
	}()
	if _, err := pw.Write([]byte(`{"id":"held","column":["Seattle"]}` + "\n")); err != nil {
		t.Fatal(err)
	}

	// Wait until the held request occupies the only slot.
	waitFor(t, func() bool { return srv.batchSnapshot().InFlightRequests == 1 })

	// Concurrent batches must all be rejected with 429 + Retry-After.
	var rejected int
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/v1/batch/autofill", "application/x-ndjson",
			strings.NewReader(`{"column":["Portland"]}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
			retryAfter := resp.Header.Get("Retry-After")
			if retryAfter == "" {
				t.Error("429 without Retry-After")
			}
			var e client.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != client.CodeOverloaded {
				t.Errorf("429 body not a structured JSON error")
			}
			// The header and the envelope advertise the same delay.
			if secs, _ := strconv.ParseInt(retryAfter, 10, 64); secs*1000 != e.Error.RetryAfterMs {
				t.Errorf("Retry-After %ss out of sync with retry_after_ms %d", retryAfter, e.Error.RetryAfterMs)
			}
			if e.Error.RequestID == "" {
				t.Error("429 envelope missing request_id")
			}
		}
		resp.Body.Close()
	}
	if rejected != 4 {
		t.Errorf("rejected = %d, want 4 (single request slot is held)", rejected)
	}

	// Release the held batch; it must complete with every line answered.
	pw.Close()
	b := <-firstBody
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"id":"held"`) || !strings.Contains(string(b), `"done":true`) {
		t.Errorf("held batch response incomplete: %q", string(b))
	}
	// Full-duplex streaming: the body kept decoding after the first
	// response flush, so the stream must have ended cleanly, not truncated.
	if strings.Contains(string(b), `"truncated"`) {
		t.Errorf("held batch stream truncated: %q", string(b))
	}

	stats := srv.Stats()
	if stats.Batch.Rejected != 4 || stats.Batch.Requests != 1 {
		t.Errorf("batch stats = %+v, want 1 accepted / 4 rejected", stats.Batch)
	}
	if stats.Batch.Rows != 1 {
		t.Errorf("batch rows = %d, want 1", stats.Batch.Rows)
	}
}

// TestBatchConcurrentNoneDropped floods a small limiter with concurrent
// batches over a real server: every accepted request answers all of its
// rows plus a trailer, every rejection is an explicit 429.
func TestBatchConcurrentNoneDropped(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	srv.batch = newBatchLimiter(2)
	srv.fair = qos.NewFairQueue(4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	const rowsPer = 5
	var body strings.Builder
	for i := 0; i < rowsPer; i++ {
		fmt.Fprintf(&body, `{"column":["San Francisco","Seattle","Portland"]}`+"\n")
	}

	var mu sync.Mutex
	accepted, rejected := 0, 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/batch/autofill", "application/x-ndjson",
				strings.NewReader(body.String()))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				accepted++
				var trailer client.BatchTrailer
				lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
					t.Errorf("no trailer in %q", string(b))
					return
				}
				if trailer.Results != rowsPer || trailer.Errors != 0 || trailer.Truncated {
					t.Errorf("trailer = %+v, want %d clean results", trailer, rowsPer)
				}
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("status = %d: %s", resp.StatusCode, string(b))
			}
		}()
	}
	wg.Wait()

	if accepted == 0 {
		t.Error("no batch was accepted")
	}
	if accepted+rejected != clients {
		t.Errorf("accepted %d + rejected %d != %d clients", accepted, rejected, clients)
	}
	stats := srv.Stats()
	if got := stats.Batch.Rows; got != int64(accepted*rowsPer) {
		t.Errorf("rows = %d, want %d (accepted batches × rows, none dropped)", got, accepted*rowsPer)
	}
	if stats.Batch.Rejected != int64(rejected) {
		t.Errorf("stats rejected = %d, observed %d", stats.Batch.Rejected, rejected)
	}
	if stats.Batch.PeakRows > 4 {
		t.Errorf("peak in-flight rows = %d, exceeds bound 4", stats.Batch.PeakRows)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
