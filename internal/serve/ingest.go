package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mapsynth/internal/ingest"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

// POST /v1/corpora/{name}/tables is the live-ingestion endpoint: an NDJSON
// stream of tables (one {"domain","title","columns":[{"name","values"}]}
// object per line) is validated row by row through the same tenant/QoS
// admission as batch queries, appended to the corpus's durable log under
// one fsync, and handed to the incremental synthesis engine. The response
// is NDJSON too: one {"index","lsn"} or {"index","error"} line per input,
// then a trailer with the log head, the applied LSN and the synthesis
// disposition. By default synthesis runs asynchronously (the trailer says
// "queued"); ?wait=1 holds the trailer until the new version is live — the
// per-row lines are written and flushed as soon as the append is durable.

func (s *Server) handleIngestTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, client.CodeMethodNotAllowed, "POST required")
		return
	}
	// Without a log directory no acknowledgement could be durable.
	if s.opts.IngestDir == "" {
		writeError(w, r, client.CodeUnprocessable, "ingestion disabled: start serve with -ingest-dir")
		return
	}
	tn, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	c, ok := s.resolveCorpus(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	// Ingest streams share the batch request budget: a flood of ingest
	// requests is rejected with the same 429 contract as batch floods.
	if !s.batch.tryAcquireRequest() {
		writeOverloaded(w, r, batchRetryAfter, "batch capacity saturated, retry later")
		return
	}
	defer s.batch.releaseRequest()
	ing, err := s.ingestorFor(c.name)
	if err != nil {
		writeError(w, r, client.CodeUnprocessable, "ingest unavailable: "+err.Error())
		return
	}

	// Decode and validate the whole stream before appending, holding one
	// Batch-band fair-queue slot per row: an ingest flood backpressures
	// against the same slot budget as batch rows and can never crowd out
	// interactive queries (one slot stays reserved for them).
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	var rows []ingest.TableRow
	var accepted []int // input index of each accepted row
	var errLines []rowErrorLine
	truncated := false
	for i := 0; ; i++ {
		var row ingest.TableRow
		if err := dec.Decode(&row); err != nil {
			if !errors.Is(err, io.EOF) {
				errLines = append(errLines, errorLine(i, "", &computeError{client.CodeBadRequest, "bad table line: " + err.Error()}))
				truncated = true
			}
			break
		}
		if err := s.acquireRow(r.Context(), tn); err != nil {
			truncated = true
			break
		}
		verr := row.Validate()
		s.releaseRow(verr != nil)
		if verr != nil {
			errLines = append(errLines, errorLine(i, "", &computeError{client.CodeBadRequest, "invalid table: " + verr.Error()}))
			continue
		}
		rows = append(rows, row)
		accepted = append(accepted, i)
	}

	// One append, one fsync: the whole request's rows become durable (and
	// visible to synthesis) together.
	lsns, err := ing.Append(rows)
	if err != nil {
		writeError(w, r, appendErrorCode(err), "ingest log append: "+err.Error())
		return
	}
	// The rows are durable: acknowledge them now. Only the trailer reports
	// on synthesis, so with ?wait=1 the acks are flushed before the wait.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for k, i := range accepted {
		_ = enc.Encode(client.IngestLine{Index: i, LSN: lsns[k]})
	}
	for _, el := range errLines {
		_ = enc.Encode(el)
	}
	trailer := client.IngestTrailer{Done: true, Corpus: c.name, Accepted: len(rows),
		Rejected: len(errLines), Truncated: truncated, RequestID: requestID(r)}
	if r.URL.Query().Get("wait") == "1" {
		_ = http.NewResponseController(w).Flush()
		if serr := ing.Sync(r.Context()); serr != nil {
			trailer.Synthesis, trailer.SynthesisError = "error", serr.Error()
		} else {
			trailer.Synthesis = "applied"
		}
	} else {
		if len(rows) > 0 {
			ing.Kick()
		}
		trailer.Synthesis = "queued"
	}
	trailer.HeadLSN = ing.Head()
	trailer.AppliedLSN = ing.Applied()
	if st := c.state.Load(); st != nil {
		trailer.Version = st.Version
	}
	_ = enc.Encode(trailer)
}

// appendErrorCode classifies a failed ingest append: a failed log is a
// declared, lasting condition (503 until restart); anything else is
// internal.
func appendErrorCode(err error) string {
	if errors.Is(err, ingest.ErrLogFailed) {
		return client.CodeIngestLogFailed
	}
	return client.CodeInternal
}

// ingestorFor returns the corpus's ingestor, creating it on first use: the
// append log opens (replaying any persisted rows) under IngestDir, and the
// default corpus's base tables are Options.Tables.
func (s *Server) ingestorFor(name string) (*ingest.Ingestor, error) {
	return s.ingest.GetOrCreate(name, func() (*ingest.Ingestor, error) {
		opts := ingest.Options{
			LogPath: filepath.Join(s.opts.IngestDir, name+".mlog"),
			Config:  s.synthesisConfig(),
			Publish: func(maps []*mapping.Mapping, lsn int64) error {
				// At LSN 0 (a rebuild before any ingest) the image is the
				// snapshot's own synthesis, so it keeps the snapshot path.
				return s.publish(name, lsn == 0, func() (*snapshot.Handle, error) {
					return snapshot.FromMappings(maps)
				})
			},
		}
		if name == DefaultCorpus {
			opts.Base = s.opts.Tables
		}
		// Without base tables the engine synthesizes over the ingested
		// tables alone, so a bare publish would replace a snapshot-served
		// corpus with just that output — wiping content the server cannot
		// regenerate. Freeze the live mapping set now and stack every
		// publish on it: the pre-ingest corpus is a fixed base layer,
		// encoded once, and ingested synthesis is appended with fresh IDs.
		if len(opts.Base) == 0 {
			prefix, maxID, err := s.frozenBase(name)
			if err != nil {
				return nil, err
			}
			if prefix != nil {
				opts.Publish = func(maps []*mapping.Mapping, lsn int64) error {
					// The set is this publish's own (the engine's cache
					// keeps no mapping), so it is renumbered in place.
					for i, m := range maps {
						m.ID = maxID + 1 + i
					}
					return s.publish(name, false, func() (*snapshot.Handle, error) {
						return prefix.Image(maps)
					})
				}
			}
		}
		return ingest.NewIngestor(opts)
	})
}

// frozenBase encodes the corpus's currently served mapping set once as the
// fixed base layer of base-less ingestion, and returns it with the largest
// mapping ID in it. The prefix copies every string it keeps, so the state
// is held only while it builds. Nil when the corpus is empty.
func (s *Server) frozenBase(name string) (*snapshot.Prefix, int, error) {
	st := s.CorpusState(name)
	if st == nil || st.NumMappings() == 0 {
		return nil, 0, nil
	}
	// The materialized mappings are views into st's image, which may be
	// an mmapped file: keep it mapped until NewPrefix has copied them.
	defer runtime.KeepAlive(st)
	frozen := st.handle.Materialize()
	maxID := 0
	for _, m := range frozen {
		maxID = max(maxID, m.ID)
	}
	prefix, err := snapshot.NewPrefix(frozen)
	return prefix, maxID, err
}

// recoverIngest reopens the append log of every served corpus found under
// IngestDir and kicks synthesis, so rows acknowledged before a restart are
// served again without a new post. A log that fails to open (ErrLogCorrupt
// among others) fails start-up; a log naming no served corpus is left alone
// with a warning.
func (s *Server) recoverIngest() error {
	dir := s.opts.IngestDir
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("scanning ingest dir: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".mlog")
		if !ok || e.IsDir() {
			continue
		}
		if s.CorpusState(name) == nil {
			s.logger.Warn("ingest log names no served corpus; not replayed", "path", filepath.Join(dir, e.Name()), "corpus", name)
			continue
		}
		ing, err := s.ingestorFor(name)
		if err != nil {
			return fmt.Errorf("recovering corpus %q from its ingest log: %w", name, err)
		}
		ing.Kick()
	}
	return nil
}

// synthesisConfig is the pipeline configuration of rebuilds and ingestion.
func (s *Server) synthesisConfig() pipeline.Config {
	if s.opts.Synthesis != nil {
		return *s.opts.Synthesis
	}
	cfg := pipeline.DefaultConfig()
	cfg.Workers = s.opts.Workers
	return cfg
}

// publish installs a synthesized image (ingest or rebuild) as the corpus's
// next version. Like every state it is a canonical v2 image: shipped as is by
// snapshot GETs, CRC-identified on the metadata surfaces — and byte-identical
// to what an offline rebuild over the same tables would snapshot (the
// incremental engine's golden parity contract). swapIn is atomic, so
// queries never observe a partially applied version. The state has no
// snapshot path to re-read unless keepPath carries over the live one.
func (s *Server) publish(name string, keepPath bool, image func() (*snapshot.Handle, error)) error {
	c := s.reg.shell(name)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	t0 := time.Now()
	h, err := image()
	if err != nil {
		return err
	}
	path := ""
	if cur := c.state.Load(); keepPath && cur != nil {
		path = cur.Path
	}
	s.swapIn(name, s.newState(h, path, t0))
	return nil
}

// ingestStatusFor returns the corpus's staleness report, nil when the
// corpus has never been ingested into.
func (s *Server) ingestStatusFor(name string) *client.IngestStatus {
	ing := s.ingest.Get(name)
	if ing == nil {
		return nil
	}
	st := ing.Status()
	return &st
}
