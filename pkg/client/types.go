package client

// ResponseMeta carries per-response transport metadata. It is embedded in
// every single-call response type and populated by the SDK from response
// headers — not part of the JSON body (batch streams carry the ID in their
// trailer instead).
type ResponseMeta struct {
	// RequestID is the X-Request-ID the server assigned (or echoed back),
	// tying this response to the server's access log and /v1/metrics view
	// of the same request.
	RequestID string `json:"-"`
}

// setRequestID is the hook Client.call uses to fill the meta in.
func (m *ResponseMeta) setRequestID(id string) { m.RequestID = id }

// requestIDSetter is satisfied by every response type embedding ResponseMeta.
type requestIDSetter interface{ setRequestID(id string) }

// Example is one demonstrated (left, right) pair for auto-fill.
type Example struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

// AutoFillRequest is the body of POST /v1/autofill and one line of
// POST /v1/batch/autofill.
type AutoFillRequest struct {
	// ID is echoed back on batch streams; single calls reject a non-empty
	// one.
	ID string `json:"id,omitempty"`
	// Column is the left-value column to fill (required).
	Column []string `json:"column"`
	// Examples are demonstrated pairs every answering mapping must agree
	// with.
	Examples []Example `json:"examples,omitempty"`
	// MinCoverage in (0, 1] is the minimum fraction of column values the
	// mapping must contain; 0 selects the server default (0.8).
	MinCoverage float64 `json:"min_coverage,omitempty"`
	// TopK in [1, 100] additionally returns the best K qualifying
	// mappings' results as Candidates; 0 returns the best only.
	TopK int `json:"top_k,omitempty"`
}

// FilledCell is one auto-filled row.
type FilledCell struct {
	Row   int    `json:"row"`
	Value string `json:"value"`
}

// AutoFillCandidate is one qualifying mapping's fill result.
type AutoFillCandidate struct {
	MappingIndex int          `json:"mapping_index"`
	MappingID    int          `json:"mapping_id,omitempty"`
	Filled       []FilledCell `json:"filled,omitempty"`
}

// AutoFillResponse is the answer to an auto-fill query; the embedded
// candidate is the best mapping's result.
type AutoFillResponse struct {
	ResponseMeta
	Found bool `json:"found"`
	AutoFillCandidate
	// Candidates lists the best TopK results (primary included) when the
	// request set TopK > 0.
	Candidates []AutoFillCandidate `json:"candidates,omitempty"`
}

// AutoCorrectRequest is the body of POST /v1/autocorrect and one line of
// POST /v1/batch/autocorrect.
type AutoCorrectRequest struct {
	// ID is echoed back on batch streams; empty on single calls.
	ID string `json:"id,omitempty"`
	// Column is the possibly mixed-representation column (required).
	Column []string `json:"column"`
	// MinEach is the minimum number of values required on each side
	// before the mix is trusted; 0 selects the server default (2).
	MinEach int `json:"min_each,omitempty"`
	// MinCoverage as in AutoFillRequest.
	MinCoverage float64 `json:"min_coverage,omitempty"`
	// TopK as in AutoFillRequest.
	TopK int `json:"top_k,omitempty"`
}

// Correction is one suggested cell fix. The capitalized JSON keys are the
// service's historical wire format, preserved verbatim by the v1 contract.
type Correction struct {
	Row       int    `json:"Row"`
	Original  string `json:"Original"`
	Suggested string `json:"Suggested"`
}

// AutoCorrectCandidate is one qualifying mapping's correction result.
type AutoCorrectCandidate struct {
	MappingIndex int          `json:"mapping_index"`
	MappingID    int          `json:"mapping_id,omitempty"`
	Corrections  []Correction `json:"corrections,omitempty"`
}

// AutoCorrectResponse is the answer to an auto-correct query.
type AutoCorrectResponse struct {
	ResponseMeta
	Found bool `json:"found"`
	AutoCorrectCandidate
	Candidates []AutoCorrectCandidate `json:"candidates,omitempty"`
}

// AutoJoinRequest is the body of POST /v1/autojoin and one line of
// POST /v1/batch/autojoin.
type AutoJoinRequest struct {
	// ID is echoed back on batch streams; empty on single calls.
	ID string `json:"id,omitempty"`
	// KeysA and KeysB are the two key columns to bridge (required).
	KeysA []string `json:"keys_a"`
	KeysB []string `json:"keys_b"`
	// MinCoverage as in AutoFillRequest, applied to KeysA.
	MinCoverage float64 `json:"min_coverage,omitempty"`
	// TopK as in AutoFillRequest.
	TopK int `json:"top_k,omitempty"`
}

// JoinedRow is one bridged row pair.
type JoinedRow struct {
	LeftRow  int `json:"left_row"`
	RightRow int `json:"right_row"`
}

// AutoJoinCandidate is one bridging mapping's join result.
type AutoJoinCandidate struct {
	MappingIndex int         `json:"mapping_index"`
	MappingID    int         `json:"mapping_id,omitempty"`
	Bridged      int         `json:"bridged"`
	Rows         []JoinedRow `json:"rows,omitempty"`
}

// AutoJoinResponse is the answer to an auto-join query.
type AutoJoinResponse struct {
	ResponseMeta
	Found bool `json:"found"`
	AutoJoinCandidate
	Candidates []AutoJoinCandidate `json:"candidates,omitempty"`
}

// LookupResponse is the answer to GET /v1/lookup?key=...: the
// best-supported mapped value for one left key, with provenance of the
// mapping that supplied it.
type LookupResponse struct {
	ResponseMeta
	Found bool   `json:"found"`
	Key   string `json:"key"`
	// Value is the majority right value's representative surface form.
	Value string `json:"value,omitempty"`
	// Alternatives lists further recorded right surface forms (synonymous
	// mentions), majority winner excluded.
	Alternatives []string `json:"alternatives,omitempty"`
	// Provenance of the answering mapping.
	MappingID int `json:"mapping_id,omitempty"`
	Support   int `json:"support,omitempty"`
	Tables    int `json:"tables,omitempty"`
	Domains   int `json:"domains,omitempty"`
}

// Health is the body of GET /v1/healthz: liveness plus per-corpus
// readiness. The server answers 503 (surfaced as an *APIError with code
// "not_ready") only when the default corpus is absent.
type Health struct {
	ResponseMeta
	// Fields in key order: the order of these bytes on the wire.
	Corpora       map[string]CorpusHealth `json:"corpora"`
	Status        string                  `json:"status"`
	UptimeSeconds float64                 `json:"uptime_s"`
}

// CorpusHealth is one corpus's entry in Health.
type CorpusHealth struct {
	// Snapshot is the file the state was loaded from; absent for uploads,
	// rebuilds and ingest publishes.
	Snapshot string `json:"snapshot,omitempty"`
	Version  int64  `json:"version"`
	// Format is always "v2": every state is served from a v2 snapshot
	// image, whatever it was loaded or built from.
	Format     string  `json:"format"`
	Mappings   int     `json:"mappings"`
	Pairs      int     `json:"pairs"`
	LoadedAt   string  `json:"loaded_at"`
	AgeSeconds float64 `json:"age_s"`
	// SnapshotCRC is the hex whole-file CRC of the state's snapshot image —
	// its content identity, comparable across nodes.
	SnapshotCRC string `json:"snapshot_crc,omitempty"`
	// Ingest reports live-ingestion staleness; nil for corpora never
	// ingested into.
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

// IngestStatus is one corpus's live-ingestion staleness report: how far the
// durable log head has run ahead of what the serving state reflects.
type IngestStatus struct {
	// HeadLSN is the highest durable LSN in the append log.
	HeadLSN int64 `json:"head_lsn"`
	// AppliedLSN is the highest LSN folded into the live serving state.
	AppliedLSN int64 `json:"applied_lsn"`
	// LagSeconds is the age of the oldest durable-but-unapplied row; 0 when
	// caught up.
	LagSeconds float64 `json:"lag_seconds"`
	// Pending reports rows are durable but not yet applied.
	Pending   bool    `json:"pending"`
	Runs      int64   `json:"runs"`
	RunErrors int64   `json:"run_errors,omitempty"`
	LastError string  `json:"last_error,omitempty"`
	LastRunMs float64 `json:"last_run_ms,omitempty"`
	// CacheHits / CacheMisses count compatibility-graph components reused
	// vs re-synthesized by the incremental engine, cumulative.
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	LogPath     string `json:"log_path,omitempty"`
	// LogBytesTruncated counts bytes of torn tail discarded at replay.
	LogBytesTruncated int64 `json:"log_bytes_truncated,omitempty"`
	// LogFailed is the error that failed the append log: every append
	// answers 503 ingest_log_failed until the server restarts. Empty while
	// healthy.
	LogFailed string `json:"log_failed,omitempty"`
	// LastSynthesisMs (incremental synthesis) and LastPublishMs (image
	// build and swap) split the last run: they sum to LastRunMs.
	LastSynthesisMs float64 `json:"last_synthesis_ms,omitempty"`
	LastPublishMs   float64 `json:"last_publish_ms,omitempty"`
}

// EndpointStats is one endpoint's counters in Stats.
type EndpointStats struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// Stats is the body of GET /v1/stats (default corpus) or
// GET /v1/corpora/{name}/stats — one corpus's counters plus the
// server-wide batch limiter, tenants and fair queue. Sections whose exact
// shape the SDK does not interpret are left as generic maps for forward
// compatibility.
type Stats struct {
	// RequestID is this stats request's own ID.
	RequestID     string                   `json:"request_id,omitempty"`
	Corpus        string                   `json:"corpus"`
	UptimeSeconds float64                  `json:"uptime_s"`
	Reloads       int64                    `json:"reloads"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Batch         map[string]any           `json:"batch"`
	// Tenants maps tenant name to its admission counters (requests,
	// throttled, errors, queue_depth, latency percentiles); FairQueue is
	// the shared weighted-fair scheduler's occupancy.
	Tenants   map[string]TenantStats `json:"tenants"`
	FairQueue map[string]any         `json:"fair_queue"`
	Cache     map[string]any         `json:"cache"`
	Snapshot  map[string]any         `json:"snapshot"`
	// Ingest reports live-ingestion staleness; nil for corpora never
	// ingested into.
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

// TenantStats is one tenant's /v1/stats entry.
type TenantStats struct {
	Weight int `json:"weight"`
	// RateLimit is the token-bucket refill in requests/second; absent (0)
	// when the tenant is unlimited.
	RateLimit  float64 `json:"rate_limit,omitempty"`
	Requests   int64   `json:"requests"`
	Throttled  int64   `json:"throttled"`
	Errors     int64   `json:"errors"`
	QueueDepth int64   `json:"queue_depth"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// ReloadRequest is the body of POST /v1/reload.
type ReloadRequest struct {
	// Snapshot optionally points at a new snapshot file; empty re-reads
	// the currently served path.
	Snapshot string `json:"snapshot,omitempty"`
	// Rebuild re-runs the synthesis pipeline in-process instead; mutually
	// exclusive with Snapshot.
	Rebuild bool `json:"rebuild,omitempty"`
}

// ReloadResponse is the answer to a successful reload.
type ReloadResponse struct {
	ResponseMeta
	// Fields in key order: the order of these bytes on the wire.
	DurationMs float64 `json:"duration_ms"`
	Format     string  `json:"format"`
	LoadedAt   string  `json:"loaded_at"`
	Mappings   int     `json:"mappings"`
	Rebuilt    bool    `json:"rebuilt"`
	Snapshot   string  `json:"snapshot"`
	Version    int64   `json:"version"`
}

// CorpusInfo is one corpus's metadata as returned by GET /v1/corpora and
// Corpus.Get.
type CorpusInfo struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
	// Snapshot is the file the state was loaded from; absent for uploads,
	// rebuilds and ingest publishes.
	Snapshot string `json:"snapshot,omitempty"`
	// Format is always "v2" (see CorpusHealth.Format).
	Format   string `json:"format"`
	Mappings int    `json:"mappings"`
	Pairs    int    `json:"pairs"`
	// MappedBytes is the size of the state's snapshot image, mmapped or in
	// server memory.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// Madvise is the page-cache hint applied to an mmapped state's region
	// ("willneed" or "random", the -madvise flag); empty when none.
	Madvise string `json:"madvise,omitempty"`
	// ActivationSeconds is how long the live state took from snapshot open
	// to query-ready.
	ActivationSeconds float64 `json:"activation_s"`
	LoadedAt          string  `json:"loaded_at"`
	Reloads           int64   `json:"reloads"`
	// History lists the versions available for Activate/Rollback, most
	// recently live last.
	History []int64 `json:"history,omitempty"`
	// SnapshotCRC is the hex whole-file CRC of the state's snapshot image —
	// its content identity, comparable across nodes.
	SnapshotCRC string `json:"snapshot_crc,omitempty"`
	// Ingest reports live-ingestion staleness; nil for corpora never
	// ingested into.
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

// CorpusList is the body of GET /v1/corpora.
type CorpusList struct {
	// Fields in key order: the order of these bytes on the wire.
	Corpora []CorpusInfo `json:"corpora"`
	Count   int          `json:"count"`
}

// PutCorpusRequest is the JSON body of PUT /v1/corpora/{name}.
type PutCorpusRequest struct {
	// Snapshot is the snapshot file (on the server's filesystem) to load;
	// empty re-reads the corpus's current snapshot path.
	Snapshot string `json:"snapshot,omitempty"`
}

// PutCorpusResponse is the answer to a successful Put/Upload.
type PutCorpusResponse struct {
	// Fields in key order: the order of these bytes on the wire.
	Corpus     string  `json:"corpus"`
	Created    bool    `json:"created"`
	DurationMs float64 `json:"duration_ms"`
	Format     string  `json:"format"`
	LoadedAt   string  `json:"loaded_at"`
	Mappings   int     `json:"mappings"`
	Pairs      int     `json:"pairs"`
	Snapshot   string  `json:"snapshot"`
	Version    int64   `json:"version"`
}

// VersionSwapResponse is the answer to a successful Activate or Rollback.
type VersionSwapResponse struct {
	// Fields in key order: the order of these bytes on the wire.
	Corpus          string `json:"corpus"`
	Format          string `json:"format"`
	LoadedAt        string `json:"loaded_at"`
	Mappings        int    `json:"mappings"`
	PreviousVersion int64  `json:"previous_version"`
	Snapshot        string `json:"snapshot"`
	Version         int64  `json:"version"`
}
