package ingest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// PublishFunc installs a freshly synthesized mapping set as the corpus's new
// active version. appliedLSN is the log head the set was synthesized from.
// The set is the callee's own: nothing else holds the slice or its
// mappings, so it may modify them.
type PublishFunc func(maps []*mapping.Mapping, appliedLSN int64) error

// Options configures one corpus's ingestor.
type Options struct {
	// LogPath backs the append log; empty means memory-only (no durability).
	LogPath string
	// Base is the offline table corpus ingested tables extend. Ingested
	// tables get dense IDs continuing after the base, so synthesis over
	// base+log is exactly synthesis over one combined corpus.
	Base []*table.Table
	// Config is the synthesis configuration. Incrementality requires the
	// greedy resolver; other configs still work via the full-run fallback.
	Config pipeline.Config
	// Publish installs each synthesized version; nil discards results
	// (useful in tests exercising only the log).
	Publish PublishFunc
}

// Ingestor folds one corpus's append log into its served mapping set. Appends
// are cheap (validate + fsync); synthesis runs are serialized behind runMu and
// triggered either synchronously (Sync) or by a single-flight background kick.
type Ingestor struct {
	log     *Log
	base    []*table.Table
	eng     *pipeline.Engine
	inc     *pipeline.IncrementalState
	publish PublishFunc

	// runMu serializes synthesis runs; the incremental state and the
	// materialized table slice are only touched under it.
	runMu  sync.Mutex
	tables []*table.Table // base + materialized log rows, reused across runs

	applied      atomic.Int64
	pendingSince atomic.Int64 // unix nanos of the oldest unapplied append, 0 when clean
	inFlight     atomic.Bool
	pendingKick  atomic.Bool

	runs      atomic.Int64
	runErrors atomic.Int64

	errMu       sync.Mutex
	lastErr     string
	cacheHits   int
	cacheMisses int
	// lastSynthesis and lastPublish time the last successful run's phases.
	lastSynthesis, lastPublish time.Duration
}

// NewIngestor opens the corpus's append log (replaying any persisted rows)
// and prepares an incremental synthesis state. Recovered rows are not
// synthesized yet: call Kick or Sync to converge.
func NewIngestor(opts Options) (*Ingestor, error) {
	lg, err := OpenLog(opts.LogPath)
	if err != nil {
		return nil, err
	}
	ing := &Ingestor{
		log:     lg,
		base:    opts.Base,
		eng:     pipeline.New(opts.Config),
		inc:     pipeline.NewIncrementalState(),
		publish: opts.Publish,
	}
	ing.tables = append(ing.tables, opts.Base...)
	if lg.Head() > 0 {
		ing.pendingSince.Store(time.Now().UnixNano())
	}
	return ing, nil
}

// Append validates rows, persists them under one fsync, and returns their
// assigned LSNs. It does not synthesize; callers follow with Sync or Kick.
func (ing *Ingestor) Append(rows []TableRow) ([]int64, error) {
	for i := range rows {
		if err := rows[i].Validate(); err != nil {
			return nil, err
		}
	}
	lsns, err := ing.log.Append(rows)
	if err != nil {
		return nil, err
	}
	if len(lsns) > 0 {
		ing.pendingSince.CompareAndSwap(0, time.Now().UnixNano())
	}
	return lsns, nil
}

// Sync synthesizes up to the current log head and publishes the result,
// blocking until done. A no-op when already converged.
func (ing *Ingestor) Sync(ctx context.Context) error {
	return ing.run(ctx)
}

// Kick triggers an asynchronous synthesis run if none is in flight. Runs
// chain while appends keep arriving, so a single kick converges the log.
func (ing *Ingestor) Kick() {
	if !ing.inFlight.CompareAndSwap(false, true) {
		ing.pendingKick.Store(true)
		return
	}
	go func() {
		for {
			ing.pendingKick.Store(false)
			_ = ing.run(context.Background())
			ing.inFlight.Store(false)
			if !ing.pendingKick.Load() || !ing.inFlight.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// run performs one synthesis pass over base + log, publishing the result.
func (ing *Ingestor) run(ctx context.Context) error {
	ing.runMu.Lock()
	defer ing.runMu.Unlock()
	head := ing.log.Head()
	if head == ing.applied.Load() {
		return nil
	}
	// Materialize new log rows as tables with dense IDs continuing after the
	// base. The slice only ever appends, which is exactly the stability
	// contract RunIncremental's index reuse depends on.
	rows := ing.log.Rows()
	for i := len(ing.tables) - len(ing.base); i < len(rows); i++ {
		ing.tables = append(ing.tables, rows[i].Table(len(ing.base)+i))
	}
	tables := ing.tables[:len(ing.base)+int(head)]

	t0 := time.Now()
	res, err := ing.eng.RunIncremental(ctx, tables, ing.inc)
	t1 := time.Now()
	if err == nil && ing.publish != nil {
		err = ing.publish(res.Mappings, head)
	}
	hits, misses, _ := ing.inc.CacheStats()
	ing.errMu.Lock()
	ing.cacheHits, ing.cacheMisses = hits, misses
	if err != nil {
		ing.lastErr = err.Error()
	} else {
		ing.lastErr = ""
		ing.lastSynthesis, ing.lastPublish = t1.Sub(t0), time.Since(t1)
	}
	ing.errMu.Unlock()
	if err != nil {
		ing.runErrors.Add(1)
		return err
	}
	ing.runs.Add(1)
	ing.applied.Store(head)
	if ing.log.Head() == head {
		ing.pendingSince.Store(0)
	} else {
		// More rows landed during the run; the backlog is at most run-aged.
		ing.pendingSince.Store(t0.UnixNano())
	}
	return nil
}

// Rebuild re-synthesizes base + every applied row from scratch with eng and
// publishes the result at the applied LSN. It runs under the same lock as
// incremental runs, so it never interleaves with one, and its image is
// byte-identical to the last incremental publish. A cancelled ctx publishes
// nothing. The run counters and staleness report are left untouched.
func (ing *Ingestor) Rebuild(ctx context.Context, eng *pipeline.Engine) error {
	ing.runMu.Lock()
	defer ing.runMu.Unlock()
	applied := ing.applied.Load()
	res, err := eng.Run(ctx, ing.tables[:len(ing.base)+int(applied)])
	if err == nil {
		err = ctx.Err()
	}
	if err != nil || ing.publish == nil {
		return err
	}
	return ing.publish(res.Mappings, applied)
}

// Status reports head/applied LSNs, lag, and run counters: the staleness
// report GET /v1/corpora/{name}, /v1/stats and /v1/healthz serve as
// "ingest".
func (ing *Ingestor) Status() client.IngestStatus {
	st := client.IngestStatus{
		HeadLSN:    ing.log.Head(),
		AppliedLSN: ing.applied.Load(),
		Runs:       ing.runs.Load(),
		RunErrors:  ing.runErrors.Load(),
		LogPath:    ing.log.Path(),
	}
	st.Pending = st.HeadLSN != st.AppliedLSN
	if since := ing.pendingSince.Load(); st.Pending && since > 0 {
		st.LagSeconds = time.Since(time.Unix(0, since)).Seconds()
	}
	st.LogBytesTruncated = ing.log.Truncated()
	if err := ing.log.Failed(); err != nil {
		st.LogFailed = err.Error()
	}
	ing.errMu.Lock()
	st.LastError = ing.lastErr
	st.CacheHits = ing.cacheHits
	st.CacheMisses = ing.cacheMisses
	st.LastSynthesisMs = float64(ing.lastSynthesis.Microseconds()) / 1e3
	st.LastPublishMs = float64(ing.lastPublish.Microseconds()) / 1e3
	ing.errMu.Unlock()
	st.LastRunMs = st.LastSynthesisMs + st.LastPublishMs
	return st
}

// Head returns the append log's highest assigned LSN.
func (ing *Ingestor) Head() int64 { return ing.log.Head() }

// Applied returns the LSN of the last published synthesis.
func (ing *Ingestor) Applied() int64 { return ing.applied.Load() }

// Close closes the append log. In-flight runs finish against the in-memory
// rows; no new appends can be persisted.
func (ing *Ingestor) Close() error {
	return ing.log.Close()
}

// Manager owns the per-corpus ingestors of one server.
type Manager struct {
	mu   sync.Mutex
	ings map[string]*Ingestor
}

// NewManager creates an empty manager.
func NewManager() *Manager {
	return &Manager{ings: make(map[string]*Ingestor)}
}

// Get returns the corpus's ingestor, or nil if none has been created.
func (m *Manager) Get(corpus string) *Ingestor {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ings[corpus]
}

// GetOrCreate returns the corpus's ingestor, creating it with make on first
// use. Creation is serialized; make runs under the manager lock.
func (m *Manager) GetOrCreate(corpus string, make func() (*Ingestor, error)) (*Ingestor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ing, ok := m.ings[corpus]; ok {
		return ing, nil
	}
	ing, err := make()
	if err != nil {
		return nil, err
	}
	m.ings[corpus] = ing
	return ing, nil
}

// Remove drops and closes the corpus's ingestor, if any.
func (m *Manager) Remove(corpus string) {
	m.mu.Lock()
	ing := m.ings[corpus]
	delete(m.ings, corpus)
	m.mu.Unlock()
	if ing != nil {
		ing.Close()
	}
}

// All returns a snapshot of every live ingestor keyed by corpus.
func (m *Manager) All() map[string]*Ingestor {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*Ingestor, len(m.ings))
	for k, v := range m.ings {
		out[k] = v
	}
	return out
}

// Close closes every ingestor.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ing := range m.ings {
		ing.Close()
	}
	m.ings = map[string]*Ingestor{}
}
