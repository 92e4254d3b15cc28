package serve

import (
	"context"
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

// ingestLine acknowledges one accepted table with its assigned LSN.
type ingestLine struct {
	Index int   `json:"index"`
	LSN   int64 `json:"lsn"`
}

// ingestTrailer closes every ingest response stream.
type ingestTrailer struct {
	Done     bool   `json:"done"`
	Corpus   string `json:"corpus"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	// Truncated reports the request body was abandoned before EOF
	// (malformed line or cancellation); accepted rows are still durable.
	Truncated  bool  `json:"truncated,omitempty"`
	HeadLSN    int64 `json:"head_lsn"`
	AppliedLSN int64 `json:"applied_lsn"`
	// Synthesis is "applied" (wait=1 and the new version is live),
	// "queued" (async run kicked), or "error".
	Synthesis      string `json:"synthesis"`
	SynthesisError string `json:"synthesis_error,omitempty"`
	// Version is the corpus version live at trailer time; with
	// synthesis "applied" it is the version carrying these tables.
	Version   int64  `json:"version"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) handleIngestTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, CodeMethodNotAllowed, "POST required")
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
		writeError(w, r, CodeUnprocessable, "ingest unavailable: "+err.Error())
		return
	}

	// Decode and validate the whole stream before appending, holding one
	// Batch-band fair-queue slot per row: an ingest flood backpressures
	// against the same slot budget as batch rows and can never crowd out
	// interactive queries (one slot stays reserved for them).
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBatchBodyBytes))
	dec.DisallowUnknownFields()
	var rows []ingest.TableRow
	var accepted []int // input index of each accepted row
	var errLines []batchErrorLine
	truncated := false
	for i := 0; ; i++ {
		var row ingest.TableRow
		if err := dec.Decode(&row); err != nil {
			if !errors.Is(err, io.EOF) {
				errLines = append(errLines, errorLine(i, "", &computeError{CodeBadRequest, "bad table line: " + err.Error()}))
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
			errLines = append(errLines, errorLine(i, "", &computeError{CodeBadRequest, "invalid table: " + verr.Error()}))
			continue
		}
		rows = append(rows, row)
		accepted = append(accepted, i)
	}

	// One append, one fsync: the whole request's rows become durable (and
	// visible to synthesis) together.
	lsns, err := ing.Append(rows)
	if err != nil {
		writeError(w, r, CodeInternal, "ingest log append: "+err.Error())
		return
	}
	// The rows are durable: acknowledge them now. Only the trailer reports
	// on synthesis, so with ?wait=1 the acks are flushed before the wait.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for k, i := range accepted {
		_ = enc.Encode(ingestLine{Index: i, LSN: lsns[k]})
	}
	for _, el := range errLines {
		_ = enc.Encode(el)
	}
	trailer := ingestTrailer{Done: true, Corpus: c.name, Accepted: len(rows),
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

// ingestorFor returns the corpus's ingestor, creating it on first use: the
// append log opens (replaying any persisted rows) under IngestDir, the base
// tables come from Options.IngestBase, and published versions install
// through the registry's versioned activate path as v2-backed states.
func (s *Server) ingestorFor(name string) (*ingest.Ingestor, error) {
	return s.ingest.GetOrCreate(name, func() (*ingest.Ingestor, error) {
		opts := ingest.Options{
			Corpus: name,
			Config: s.ingestConfig(),
			Publish: func(maps []*mapping.Mapping, lsn int64) error {
				return s.publishIngest(name, func() (*snapshot.Handle, error) {
					return snapshot.FromMappings(maps)
				})
			},
		}
		if dir := s.ingest.Dir(); dir != "" {
			opts.LogPath = filepath.Join(dir, name+".mlog")
		}
		if s.opts.IngestBase != nil {
			base, err := s.opts.IngestBase(context.Background(), name)
			if err != nil {
				return nil, err
			}
			opts.Base = base
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
					tail := make([]*mapping.Mapping, len(maps))
					for i, m := range maps {
						// Shallow-copy before renumbering: the engine's
						// output is shared with its component cache.
						nm := *m
						nm.ID = maxID + 1 + i
						tail[i] = &nm
					}
					return s.publishIngest(name, func() (*snapshot.Handle, error) {
						return prefix.Image(tail)
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
	dir := s.ingest.Dir()
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

func (s *Server) ingestConfig() pipeline.Config {
	if s.opts.IngestConfig != nil {
		return *s.opts.IngestConfig
	}
	cfg := pipeline.DefaultConfig()
	cfg.Workers = s.opts.Workers
	return cfg
}

// publishIngest installs an ingest-synthesized image as the corpus's next
// version. Like every state it is a canonical v2 image: byte-addressable
// for snapshot GETs, CRC-identified for delta shipping — and byte-identical
// to what an offline rebuild over the same tables would snapshot (the
// incremental engine's golden parity contract). swapIn is atomic, so
// queries never observe a partially applied version.
func (s *Server) publishIngest(name string, image func() (*snapshot.Handle, error)) error {
	c := s.reg.shell(name)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	t0 := time.Now()
	h, err := image()
	if err != nil {
		return err
	}
	s.swapIn(name, s.newState(h, "", t0))
	return nil
}

// ingestStatusFor returns the corpus's staleness report, nil when the
// corpus has never been ingested into.
func (s *Server) ingestStatusFor(name string) *ingest.Status {
	ing := s.ingest.Get(name)
	if ing == nil {
		return nil
	}
	st := ing.Status()
	return &st
}
