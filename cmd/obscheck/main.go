// Command obscheck is the observability layer's end-to-end acceptance
// check, run by CI: it synthesizes the seed corpus, serves the snapshot
// over real HTTP, scrapes GET /v1/metrics (validating the Prometheus text
// exposition with internal/metrics.Lint), drives a mixed loadgen workload,
// and asserts the scraped counters moved by what the load generator
// reports. It then triggers POST /v1/reload {"rebuild":true} and requires
// the pipeline's per-stage metrics to appear, and finally cross-checks the
// structured JSON access log: every line parses, carries a request_id, and
// a deliberately failed request's ID shows up both in the client-side error
// and in a server-side log line with the matching envelope code.
//
// Usage:
//
//	obscheck [-duration 2s] [-scale 1.0] [-seed 42]
//
// Exit status 0 means every assertion held; any failure prints the
// violated assertion and exits 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/loadgen"
	"mapsynth/internal/metrics"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
)

func main() {
	duration := flag.Duration("duration", 2*time.Second, "loadgen phase length")
	scale := flag.Float64("scale", 1.0, "corpus scale; 1.0 is the full seed corpus")
	seed := flag.Int64("seed", 42, "corpus seed")
	flag.Parse()
	if err := run(*duration, *scale, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obscheck: PASS")
}

func run(duration time.Duration, scale float64, seed int64) error {
	ctx := context.Background()

	// 1. Seed snapshot: corpusgen → pipeline → snapshot file.
	fmt.Println("obscheck: synthesizing seed corpus...")
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, Scale: scale})
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(ctx, corpus.Tables)
	if err != nil {
		return fmt.Errorf("synthesis: %w", err)
	}
	dir, err := os.MkdirTemp("", "obscheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "seed.snap")
	if err := snapshot.WriteFileV2(snapPath, res.Mappings); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}

	// 2. Serve it with the full observability wiring of cmd/serve: one
	// shared registry (with Tables, the server adds the rebuild pipeline's
	// stage metrics to it), JSON access logs into a buffer we can parse
	// afterwards.
	reg := metrics.New()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	srv, err := serve.New(serve.Options{
		SnapshotPath: snapPath,
		CacheSize:    1024,
		Tables:       corpus.Tables,
		Metrics:      reg,
		Logger:       logger,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 3. First scrape: valid exposition, before any traffic beyond it.
	before, err := scrape(ts.URL)
	if err != nil {
		return err
	}

	// 4. Load phase through the SDK.
	fmt.Printf("obscheck: driving mixed workload for %v...\n", duration)
	maps, err := snapshot.ReadFile(snapPath)
	if err != nil {
		return err
	}
	wl, err := loadgen.NewWorkload(maps)
	if err != nil {
		return err
	}
	concurrency := 4
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     ts.URL,
		Duration:    duration,
		Concurrency: concurrency,
		BatchSize:   8,
		Seed:        seed,
		Client:      ts.Client(),
	}, wl)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("loadgen issued no requests")
	}
	if rep.Errors != 0 {
		return fmt.Errorf("loadgen saw %d errors; samples: %+v", rep.Errors, rep.ErrorSamples)
	}

	// 5. One deliberate failure with a pinned request ID, for log
	// correlation below.
	const badID = "obscheck-bad-1"
	breq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/autofill", strings.NewReader("{}"))
	if err != nil {
		return err
	}
	breq.Header.Set("Content-Type", "application/json")
	breq.Header.Set("X-Request-ID", badID)
	bresp, err := ts.Client().Do(breq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("empty autofill answered %d, want 400", bresp.StatusCode)
	}

	// 6. Second scrape: counters must have moved by what loadgen reports.
	after, err := scrape(ts.URL)
	if err != nil {
		return err
	}
	reqDelta := sumFamily(after, "mapsynth_requests_total", "") - sumFamily(before, "mapsynth_requests_total", "")
	// The run deadline can tear down up to one in-flight request per worker
	// after the server counted it, so the server may be ahead by at most
	// the concurrency; the deliberate 400 adds one more.
	minWant := float64(rep.Requests + 1)
	maxWant := float64(rep.Requests + 1 + int64(concurrency))
	if reqDelta < minWant || reqDelta > maxWant {
		return fmt.Errorf("mapsynth_requests_total moved by %.0f, loadgen issued %d (want [%.0f, %.0f])",
			reqDelta, rep.Requests, minWant, maxWant)
	}
	throttledDelta := sumFamily(after, "mapsynth_errors_total", `code="overloaded"`) -
		sumFamily(before, "mapsynth_errors_total", `code="overloaded"`)
	if throttledDelta < float64(rep.Throttled) || throttledDelta > float64(rep.Throttled+int64(concurrency)) {
		return fmt.Errorf("errors_total{overloaded} moved by %.0f, loadgen throttled %d", throttledDelta, rep.Throttled)
	}
	badDelta := sumFamily(after, "mapsynth_errors_total", `code="bad_request"`) -
		sumFamily(before, "mapsynth_errors_total", `code="bad_request"`)
	if badDelta != 1 {
		return fmt.Errorf("errors_total{bad_request} moved by %.0f, want exactly 1", badDelta)
	}
	if got := sumFamily(after, "mapsynth_corpora", ""); got != 1 {
		return fmt.Errorf("mapsynth_corpora = %.0f, want 1", got)
	}

	// 7. Rebuild reload: the pipeline's stage metrics must appear.
	fmt.Println("obscheck: rebuild reload...")
	rresp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"rebuild":true}`))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		return fmt.Errorf("rebuild reload answered %d", rresp.StatusCode)
	}
	rebuilt, err := scrape(ts.URL)
	if err != nil {
		return err
	}
	for _, stage := range []string{"index", "extract", "graph", "partition", "resolve"} {
		if sumFamily(rebuilt, "mapsynth_pipeline_stage_runs_total", `stage="`+stage+`"`) < 1 {
			return fmt.Errorf("pipeline stage %q missing from exposition after rebuild", stage)
		}
	}

	// 8. Access log: every line is valid JSON with a request_id, and the
	// deliberate failure is correlated by ID and envelope code.
	lines := 0
	foundBad := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if line == "" {
			continue
		}
		var entry struct {
			Msg       string  `json:"msg"`
			RequestID string  `json:"request_id"`
			Route     string  `json:"route"`
			Status    int     `json:"status"`
			Code      string  `json:"code"`
			Duration  float64 `json:"duration_ms"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			return fmt.Errorf("access log line is not JSON: %q: %v", line, err)
		}
		if entry.Msg != "request" {
			continue
		}
		lines++
		if entry.RequestID == "" {
			return fmt.Errorf("access log line missing request_id: %q", line)
		}
		if entry.RequestID == badID {
			foundBad = true
			if entry.Status != http.StatusBadRequest || entry.Code != "bad_request" {
				return fmt.Errorf("correlated log line wrong: %q", line)
			}
		}
	}
	if lines == 0 {
		return fmt.Errorf("no access log lines captured")
	}
	if !foundBad {
		return fmt.Errorf("deliberate failure %s not found in access log", badID)
	}

	fmt.Printf("obscheck: %d requests, %d throttled, %.0f counted server-side, %d access-log lines, all correlated\n",
		rep.Requests, rep.Throttled, reqDelta, lines)
	return nil
}

// scrape fetches /v1/metrics, checks status and content type, and lints the
// exposition before handing the body back.
func scrape(base string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		return nil, fmt.Errorf("/v1/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := metrics.Lint(body); err != nil {
		return nil, fmt.Errorf("exposition lint: %w", err)
	}
	return body, nil
}

// sumFamily adds up every sample of the exactly named family whose raw
// label block contains labelSub ("" matches all label sets). Histogram
// suffixes (_bucket, _sum, _count) have distinct names, so they never fold
// into their base family here.
func sumFamily(exposition []byte, family, labelSub string) float64 {
	var sum float64
	for _, line := range strings.Split(string(exposition), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			labels = line[i+1 : j]
			line = line[:i] + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != family {
			continue
		}
		if labelSub != "" && !strings.Contains(labels, labelSub) {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		sum += v
	}
	return sum
}
