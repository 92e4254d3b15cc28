package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
)

// The registry is the multi-corpus core of the server: one process serves
// many named corpora — different domains (country codes, tickers,
// airports) synthesized from different table corpora — each behind its own
// atomic state pointer with an independent lifecycle (load, replace,
// activate, rollback, delete). Heavy machinery stays shared: every
// corpus's sessions fan out on one worker pool configuration, and the
// /batch/* endpoints of all corpora are admitted by one batch limiter, so
// a batch burst against one corpus is backpressured against the same
// request/row budget as every other.

// DefaultCorpus is the corpus the unscoped paths (/v1/lookup, /lookup, …)
// answer from; it is the one loaded from -snapshot and it cannot be
// deleted.
const DefaultCorpus = "default"

// defaultHistoryDepth bounds each corpus's version-history ring when
// Options.HistoryDepth is unset.
const defaultHistoryDepth = 4

// corpusStats is one corpus's set of per-endpoint counters. Unscoped,
// /v1/, and /v1/corpora/default/ traffic all land on the default corpus's
// counters — the three spellings are one logical endpoint.
type corpusStats struct {
	lookup           endpointStats
	autofill         endpointStats
	autocorrect      endpointStats
	autojoin         endpointStats
	batchAutofill    endpointStats
	batchAutocorrect endpointStats
	batchAutojoin    endpointStats
}

// corpus is one named serving unit: the live state, a bounded ring of
// previously live states for activate/rollback, and per-corpus counters.
// Request handling is lock-free on the state pointer; the two mutexes
// guard writers only.
type corpus struct {
	name string
	// state is the live snapshot state; never nil once the corpus is
	// visible through the registry.
	state   atomic.Pointer[State]
	reloads atomic.Int64
	stats   corpusStats

	// writeMu serializes installs: a load holds it from open to swap, a
	// synthesized publish (ingest or rebuild) from encode to swap; the later
	// writer wins. An ingestor takes its run lock before writeMu.
	writeMu sync.Mutex

	// mu guards the version counter, the history ring, and the dead flag.
	// Lock order: registry.mu may be held while taking mu (delete); mu is
	// never held while taking registry.mu.
	mu          sync.Mutex
	history     []*State // previously live states, most recently live last
	nextVersion int64
	dead        bool // deleted from the registry; installs must retry
}

// historyVersions returns the version numbers sitting in the ring, most
// recently live last.
func (c *corpus) historyVersions() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64sOf(c.history)
}

// activate makes the state with the given version live again. The
// currently live state takes the activated entry's place in the ring (at
// the recency end), so an activate→rollback round trip restores exactly
// the state that was live before. Activating the live version is a no-op
// success.
func (c *corpus) activate(version int64) (live, previous *State, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Load()
	if cur.Version == version {
		return cur, cur, nil
	}
	for i, st := range c.history {
		if st.Version == version {
			c.history = append(append(c.history[:i:i], c.history[i+1:]...), cur)
			c.state.Store(st)
			return st, cur, nil
		}
	}
	return nil, nil, fmt.Errorf("corpus %q: version %d is not live (%d) and not in history %v",
		c.name, version, cur.Version, int64sOf(c.history))
}

// rollback re-activates the most recently live prior state; the live state
// takes its slot, so rolling back twice returns to where you started.
func (c *corpus) rollback() (live, previous *State, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) == 0 {
		return nil, nil, fmt.Errorf("corpus %q: no prior version to roll back to", c.name)
	}
	cur := c.state.Load()
	prev := c.history[len(c.history)-1]
	c.history[len(c.history)-1] = cur
	c.state.Store(prev)
	return prev, cur, nil
}

func int64sOf(states []*State) []int64 {
	vs := make([]int64, len(states))
	for i, st := range states {
		vs[i] = st.Version
	}
	return vs
}

// registry is the concurrent name → corpus map.
type registry struct {
	mu      sync.RWMutex
	corpora map[string]*corpus
	// depth bounds each corpus's history ring.
	depth int
}

func newRegistry(depth int) *registry {
	if depth < 1 {
		depth = defaultHistoryDepth
	}
	return &registry{corpora: make(map[string]*corpus), depth: depth}
}

// get returns the named corpus, nil when it does not exist. A shell that
// has never had a state installed (a load in flight, or a failed one) is
// invisible.
func (g *registry) get(name string) *corpus {
	g.mu.RLock()
	c := g.corpora[name]
	g.mu.RUnlock()
	if c == nil || c.state.Load() == nil {
		return nil
	}
	return c
}

// shell returns the named corpus, creating an empty (stateless, invisible)
// shell if needed so concurrent first loads of one name serialize on the
// same locks. Shells whose load fails stay in the map deliberately: they
// are a few hundred bytes, invisible to get/list, reused by the next
// attempt — and removing one would strand a concurrent loader holding its
// writeMu, silently forking the per-corpus write serialization.
func (g *registry) shell(name string) *corpus {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.corpora[name]; ok {
		return c
	}
	c := &corpus{name: name}
	g.corpora[name] = c
	return c
}

// remove deletes the named corpus, returning it, or nil when it was not
// visible. The dead flag makes a racing install retry against a fresh
// shell instead of writing into the removed object.
func (g *registry) remove(name string) *corpus {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.corpora[name]
	if c == nil || c.state.Load() == nil {
		return nil
	}
	delete(g.corpora, name)
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c
}

// list returns every visible corpus sorted by name.
func (g *registry) list() []*corpus {
	g.mu.RLock()
	out := make([]*corpus, 0, len(g.corpora))
	for _, c := range g.corpora {
		if c.state.Load() != nil {
			out = append(out, c)
		}
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// validCorpusName reports whether name is acceptable: 1–64 characters of
// [A-Za-z0-9._-]. The bound keeps names safe in URLs, logs and headers.
func validCorpusName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		case b == '.', b == '_', b == '-':
		default:
			return false
		}
	}
	return true
}

// ---- server-side lifecycle operations ----

// swapIn makes st the live state of the named corpus: it assigns the next
// version number, pushes the previously live state onto the bounded
// history ring, and bumps the corpus's reload counter. The retry loop
// covers a concurrent DELETE: an install must never land in a corpus
// object that has already left the registry.
func (s *Server) swapIn(name string, st *State) *State {
	for {
		c := s.reg.shell(name)
		c.mu.Lock()
		if c.dead {
			c.mu.Unlock()
			continue
		}
		c.nextVersion++
		st.Version = c.nextVersion
		if cur := c.state.Load(); cur != nil {
			c.history = append(c.history, cur)
			if len(c.history) > s.reg.depth {
				// Copy into a fresh slice rather than re-slicing: a
				// re-slice keeps the evicted states (full mapping sets and
				// indexes) pinned by the shared backing array.
				c.history = append([]*State(nil), c.history[len(c.history)-s.reg.depth:]...)
			}
		}
		c.state.Store(st)
		c.reloads.Add(1)
		c.mu.Unlock()
		return st
	}
}

// LoadCorpusContext loads the snapshot at path into the named corpus,
// creating the corpus when it does not exist yet and replacing its live
// state when it does (the replaced state goes onto the rollback ring). An
// empty path re-reads the corpus's current snapshot path. A failed load
// leaves the corpus untouched and never bumps its reload counter.
func (s *Server) LoadCorpusContext(ctx context.Context, name, path string) (*State, error) {
	if !validCorpusName(name) {
		return nil, fmt.Errorf("serve: invalid corpus name %q (want 1-64 chars of [A-Za-z0-9._-])", name)
	}
	c := s.reg.shell(name)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	cur := c.state.Load()
	if path == "" {
		switch {
		case cur != nil && cur.Path != "":
			path = cur.Path
		case cur == nil && name == DefaultCorpus:
			path = s.opts.SnapshotPath
		}
	}
	if path == "" {
		if cur != nil {
			return nil, fmt.Errorf("serve: corpus %q has no snapshot path to re-read (it was uploaded; replace it with a new PUT body)", name)
		}
		return nil, fmt.Errorf("serve: corpus %q: no snapshot path to load", name)
	}
	t0 := time.Now()
	ld, err := snapshot.Load(path)
	if err != nil {
		return nil, fmt.Errorf("corpus %q: loading snapshot %q: %w", name, path, err)
	}
	if err := ctx.Err(); err != nil {
		ld.Handle.Close()
		return nil, err
	}
	return s.swapIn(name, s.newState(ld.Handle, path, t0)), nil
}

// LoadCorpusSnapshot opens an uploaded snapshot body as the named corpus —
// the PUT-with-bytes path, and how a cluster roll installs the source's
// image on each follower. Unlike a file the operator put on disk, the
// bytes crossed a network, so the image is fully verified (every CRC plus
// the structural walk) before it can go live; any version byte other than
// 1 or 2 fails with snapshot.ErrVersion. The resulting state has no
// snapshot path, so it can only be replaced by another PUT, not re-read.
func (s *Server) LoadCorpusSnapshot(name string, data []byte) (*State, error) {
	if !validCorpusName(name) {
		return nil, fmt.Errorf("serve: invalid corpus name %q (want 1-64 chars of [A-Za-z0-9._-])", name)
	}
	t0 := time.Now()
	ld, err := snapshot.LoadBytes(data)
	if err == nil {
		err = ld.Handle.Verify()
	}
	if err != nil {
		return nil, fmt.Errorf("corpus %q: decoding uploaded snapshot: %w", name, err)
	}
	c := s.reg.shell(name)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return s.swapIn(name, s.newState(ld.Handle, "", t0)), nil
}

// AddCorpus installs an in-memory mapping set as the named corpus — the
// entry point for tests, benchmarks and embedders that skip snapshot
// files.
func (s *Server) AddCorpus(name string, maps []*mapping.Mapping) (*State, error) {
	if !validCorpusName(name) {
		return nil, fmt.Errorf("serve: invalid corpus name %q (want 1-64 chars of [A-Za-z0-9._-])", name)
	}
	return s.installMappings(name, maps, "")
}

// DeleteCorpus removes the named corpus from the registry. The default
// corpus is protected — the unscoped API surface must always have a target.
func (s *Server) DeleteCorpus(name string) error {
	if name == DefaultCorpus {
		return fmt.Errorf("serve: the %q corpus cannot be deleted", DefaultCorpus)
	}
	if s.reg.remove(name) == nil {
		return fmt.Errorf("serve: no such corpus: %q", name)
	}
	s.ingest.Remove(name)
	return nil
}

// CorpusState returns the named corpus's live state, nil when the corpus
// does not exist.
func (s *Server) CorpusState(name string) *State {
	c := s.reg.get(name)
	if c == nil {
		return nil
	}
	return c.state.Load()
}

// CorpusNames returns the visible corpora sorted by name.
func (s *Server) CorpusNames() []string {
	cs := s.reg.list()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.name
	}
	return names
}

// ReloadAll re-reads every corpus that has a snapshot path — the SIGHUP
// behavior of a multi-corpus server. Corpora without a path (uploaded or
// in-memory) are skipped; failures are collected so one bad corpus does
// not stop the others from refreshing.
func (s *Server) ReloadAll(ctx context.Context) error {
	var errs []string
	for _, c := range s.reg.list() {
		st := c.state.Load()
		if st == nil || st.Path == "" {
			continue
		}
		if _, err := s.LoadCorpusContext(ctx, c.name, ""); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("serve: reload-all: %s", strings.Join(errs, "; "))
	}
	return nil
}
