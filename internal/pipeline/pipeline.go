// Package pipeline is the staged execution engine for offline mapping
// synthesis. It decomposes the paper's pipeline (Figure 1) into five
// first-class stages with typed inputs and outputs —
//
//	index     corpus tables        -> co-occurrence index
//	extract   corpus tables        -> candidate binary tables (Section 3)
//	graph     candidates           -> compatibility graph (Section 4.1)
//	partition positive components  -> partitions (Section 4.2, Appendix F)
//	resolve   partitions           -> conflict-free mappings (Section 4.2/4.3)
//
// — all drawing parallelism from one shared worker pool bounded by
// Config.Workers, with context cancellation threaded through every stage
// and per-stage instrumentation (durations, item counts, peak observed
// concurrency).
//
// Synthesis works per positive component of the compatibility graph (the
// graph stage emits only edges inside a w+-connected component, Appendix
// F), and components are independent by construction: the partition stage
// runs greedy synthesis per component and the resolve stage conflict
// resolution per partition, both in parallel. One sequential walk then
// assigns mapping IDs, so the output is byte-identical to a monolithic
// sequential pass for any worker count.
//
// Run and RunIncremental are one path. RunIncremental passes a state whose
// index appends instead of rebuilding and whose cache replays every
// component no new table touched (see incremental.go).
//
// cmd/synthesize, internal/serve's rebuild path, internal/ingest, the
// experiments and the examples all drive this engine directly.
package pipeline

import (
	"context"
	"sort"
	"time"

	"mapsynth/internal/compat"
	"mapsynth/internal/conflict"
	"mapsynth/internal/extract"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pool"
	"mapsynth/internal/strmatch"
	"mapsynth/internal/synthesis"
	"mapsynth/internal/table"
)

// Config parameterizes the whole pipeline. The zero value is not meaningful;
// start from DefaultConfig.
type Config struct {
	// Extract configures column coherence and FD filtering (Section 3).
	Extract extract.Options
	// Compat configures compatibility weights and blocking (Section 4.1).
	Compat compat.Options
	// Tau is the negative-edge hard-constraint threshold τ (Section 4.2).
	Tau float64
	// Conflict configures post-synthesis conflict resolution (Section 4.2,
	// "Conflict Resolution").
	Conflict conflict.Options
	// DisableNegativeSignal ignores all negative incompatibility — the
	// SynthesisPos ablation of Section 5.2.
	DisableNegativeSignal bool
	// Resolution selects the post-processing strategy: the paper's greedy
	// table removal (default), the majority-voting baseline of Section 5.6,
	// or none (the "W/O Resolution" ablation of Figure 15).
	Resolution ResolutionStrategy
	// MinDomains keeps only mappings synthesized from at least this many
	// distinct domains (Section 4.3 uses 8 on the web corpus). Zero keeps
	// everything.
	MinDomains int
	// MinPairs keeps only mappings with at least this many value pairs.
	MinPairs int
	// Synonyms optionally plugs an external synonym feed into matching and
	// conflict detection.
	Synonyms *strmatch.SynonymFeed
	// Workers bounds parallelism across every stage; zero selects
	// GOMAXPROCS.
	Workers int
}

// ResolutionStrategy selects how intra-partition conflicts are resolved.
type ResolutionStrategy int

const (
	// ResolveGreedy removes the fewest conflicting tables (Algorithm 4).
	ResolveGreedy ResolutionStrategy = iota
	// ResolveMajority keeps, per left value, the right value supported by
	// the most tables (the paper's comparison baseline, Section 5.6).
	ResolveMajority
	// ResolveNone skips conflict resolution entirely.
	ResolveNone
)

// DefaultConfig returns the configuration used by the experiments, matching
// the paper's parameter choices where stated (θ = 0.95, τ = −0.2) and
// laptop-scale analogues elsewhere.
func DefaultConfig() Config {
	return Config{
		Extract:  extract.DefaultOptions(),
		Compat:   compat.DefaultOptions(),
		Tau:      synthesis.DefaultTau,
		Conflict: conflict.DefaultOptions(),
		MinPairs: 4,
	}
}

// StageStats is the per-stage instrumentation record: what a stage
// processed, what it produced, how long it ran, and the peak number of
// concurrently running work items observed on the shared pool.
type StageStats struct {
	// Name is the stage identifier ("index", "extract", ...).
	Name string
	// Items is the number of input work items the stage iterated over
	// (tables, candidates, candidate rows, components, partitions).
	Items int
	// Produced is the number of outputs the stage emitted.
	Produced int
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// PeakWorkers is the peak concurrency the pool observed during the
	// stage; 1 for stages that run sequentially.
	PeakWorkers int
}

// Instrumentation carries optional progress hooks. Hooks are called from
// the engine's driving goroutine, never concurrently.
type Instrumentation struct {
	// OnStageStart fires before a stage runs, with the stage name and its
	// input item count.
	OnStageStart func(name string, items int)
	// OnStageEnd fires after a stage completes (not on cancellation).
	OnStageEnd func(st StageStats)
}

// Result is the output of a pipeline run.
type Result struct {
	// Mappings holds the synthesized relationships, sorted by descending
	// popularity (#domains, then #tables, then size).
	Mappings []*mapping.Mapping
	// ExtractStats reports extraction filtering counts.
	ExtractStats extract.Stats
	// Candidates is the number of candidate binary tables after extraction.
	Candidates int
	// Edges is the number of non-zero compatibility edges, all inside a
	// positive component (see compat.BuildGraph).
	Edges int
	// Blocking counts the keys and pair increments that blocking's
	// stop-word cap (compat.MaxPostingLen) skipped. All zero means every
	// shared key was counted.
	Blocking compat.BlockStats
	// Components is the number of connected components of the
	// compatibility graph, which are its positive components — the
	// parallelism width of the partition stage.
	Components int
	// Partitions is the number of partitions before curation filtering.
	Partitions int
	// TablesRemoved counts candidate tables dropped by conflict resolution.
	TablesRemoved int
	// Total is the run's wall-clock.
	Total time.Duration
	// Stages holds the per-stage instrumentation, in execution order.
	Stages []StageStats
}

// Engine runs the staged pipeline. It is stateless between runs; the struct
// holds configuration, the shared worker pool, and instrumentation hooks.
type Engine struct {
	cfg  Config
	pool *pool.Pool
	inst Instrumentation
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, pool: pool.New(cfg.Workers)}
}

// SetInstrumentation installs progress hooks; pass the zero value to clear.
func (e *Engine) SetInstrumentation(inst Instrumentation) { e.inst = inst }

// Pool exposes the engine's shared worker pool.
func (e *Engine) Pool() *pool.Pool { return e.pool }

// Stage is one typed pipeline stage: a named transformation from I to O
// that honors ctx cancellation. Run reports the stage's input item count so
// instrumentation can record it before work starts, and the produced count
// on completion.
type Stage[I, O any] struct {
	Name  string
	Items func(I) int
	Count func(O) int
	Run   func(ctx context.Context, in I) (O, error)
}

// runStage executes s over in with instrumentation and cancellation
// bracketing. (A free function because Go methods cannot introduce type
// parameters.)
func runStage[I, O any](ctx context.Context, e *Engine, res *Result, s Stage[I, O], in I) (O, error) {
	var zero O
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	items := 0
	if s.Items != nil {
		items = s.Items(in)
	}
	if e.inst.OnStageStart != nil {
		e.inst.OnStageStart(s.Name, items)
	}
	e.pool.ResetPeak()
	t0 := time.Now()
	out, err := s.Run(ctx, in)
	if err != nil {
		return zero, err
	}
	st := StageStats{
		Name:        s.Name,
		Items:       items,
		Duration:    time.Since(t0),
		PeakWorkers: e.pool.Peak(),
	}
	if st.PeakWorkers < 1 {
		st.PeakWorkers = 1
	}
	if s.Count != nil {
		st.Produced = s.Count(out)
	}
	res.Stages = append(res.Stages, st)
	if e.inst.OnStageEnd != nil {
		e.inst.OnStageEnd(st)
	}
	return out, nil
}

// Run executes the full pipeline over a table corpus. On cancellation it
// returns ctx's error and a nil result promptly, leaking no goroutines;
// otherwise the result is byte-identical for any Config.Workers value.
func (e *Engine) Run(ctx context.Context, tables []*table.Table) (*Result, error) {
	return e.run(ctx, tables, nil)
}

// run is the one synthesis path. With a nil inc it builds everything from
// scratch; with a state it appends to the state's index and replays the
// components its cache holds (see RunIncremental).
func (e *Engine) run(ctx context.Context, tables []*table.Table, inc *IncrementalState) (*Result, error) {
	res := &Result{}
	start := time.Now()
	cache := inc
	if inc != nil {
		inc.hits, inc.misses = 0, 0
		if e.cfg.Synonyms != nil {
			cache = nil // the feed is mutable, so no key can vouch for a replay
		}
	}

	idx, err := runStage(ctx, e, res, e.indexStage(inc), tables)
	if err != nil {
		return nil, err
	}

	bins, err := runStage(ctx, e, res, e.extractStage(idx), tables)
	if err != nil {
		return nil, err
	}
	res.ExtractStats = bins.stats
	res.Candidates = len(bins.bins)

	gr, err := runStage(ctx, e, res, e.graphStage(), bins)
	if err != nil {
		return nil, err
	}
	res.Edges = gr.g.NumEdges()
	res.Blocking = gr.blocking

	parts, err := runStage(ctx, e, res, e.partitionStage(bins.bins, cache), gr)
	if err != nil {
		return nil, err
	}
	res.Components = len(parts.comps)
	res.Partitions = len(parts.parts)

	maps, err := runStage(ctx, e, res, e.resolveStage(bins.bins), parts)
	if err != nil {
		return nil, err
	}
	res.Mappings = maps.mappings
	res.TablesRemoved = maps.tablesRemoved
	if cache != nil {
		cache.commit(parts.keys, parts.comps)
	}

	res.Total = time.Since(start)
	return res, nil
}

// sortByPopularity orders mappings by descending #domains, then #tables,
// then size, then ascending ID for determinism — the paper's curation
// ordering (Section 4.3).
func sortByPopularity(ms []*mapping.Mapping) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].NumDomains() != ms[j].NumDomains() {
			return ms[i].NumDomains() > ms[j].NumDomains()
		}
		if ms[i].NumTables() != ms[j].NumTables() {
			return ms[i].NumTables() > ms[j].NumTables()
		}
		if ms[i].Size() != ms[j].Size() {
			return ms[i].Size() > ms[j].Size()
		}
		return ms[i].ID < ms[j].ID
	})
}
