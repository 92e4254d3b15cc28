package main

import (
	"fmt"
	"math/rand"
	"sort"

	"mapsynth/internal/mapping"
	"mapsynth/pkg/client"
)

// Every stream is a pure function of (seed, client index, material): the
// same seed gives the same operations in the same order. Clients draw from
// independent generators so adding a client does not shift the others.

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*7919))
}

const (
	hotKeys    = 1024 // fits the server's 4096-entry lookup cache
	absentKeys = 4096
	columnRows = 16 // values per query column, and rows per batch
)

// keyspace is the material of the point-lookup stream: every distinct left
// value the served mappings hold, a seeded hot subset, and keys no mapping
// holds.
type keyspace struct {
	all, hot, absent []string
}

func newKeyspace(seed int64, maps []*mapping.Mapping) keyspace {
	seen := make(map[string]bool)
	var ks keyspace
	for _, m := range maps {
		for _, p := range m.Pairs {
			if !seen[p.L] {
				seen[p.L] = true
				ks.all = append(ks.all, p.L)
			}
		}
	}
	sort.Strings(ks.all)
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(ks.all))[:min(hotKeys, len(ks.all))] {
		ks.hot = append(ks.hot, ks.all[i])
	}
	for i := 0; i < absentKeys; i++ {
		ks.absent = append(ks.absent, fmt.Sprintf("no such key %08x-%d", rng.Uint32(), i))
	}
	return ks
}

// pointStream draws lookup keys: 70% Zipf(1.1) over the hot set (served
// from the lookup cache once warm), 20% uniform over all keys (mostly
// misses the cache and walks the index), 10% absent keys (rejected by the
// Bloom filters).
type pointStream struct {
	ks   keyspace
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newPointStream(seed int64, client int, ks keyspace) *pointStream {
	rng := clientRand(seed, client)
	return &pointStream{ks: ks, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(ks.hot)-1))}
}

func (s *pointStream) next() string {
	switch r := s.rng.Float64(); {
	case r < 0.7:
		return s.ks.hot[s.zipf.Uint64()]
	case r < 0.9:
		return s.ks.all[s.rng.Intn(len(s.ks.all))]
	default:
		return s.ks.absent[s.rng.Intn(len(s.ks.absent))]
	}
}

// opKind is one of the six request shapes of query-mixed.
type opKind int

const (
	opFill opKind = iota
	opCorrect
	opJoin
	opBatchFill
	opBatchCorrect
	opBatchJoin
)

var opNames = [...]string{"autofill", "autocorrect", "autojoin", "batch-autofill", "batch-autocorrect", "batch-autojoin"}

func (k opKind) String() string { return opNames[k] }

// batch reports whether the op is a 16-row NDJSON batch, and the single op
// whose query pool its rows come from.
func (k opKind) batch() (bool, opKind) {
	if k >= opBatchFill {
		return true, k - opBatchFill
	}
	return false, k
}

// opWeights is the mix: autofill 2, autocorrect 1, autojoin 1, a batch of
// each 1.
var opWeights = [...]int{opFill: 2, opCorrect: 1, opJoin: 1, opBatchFill: 1, opBatchCorrect: 1, opBatchJoin: 1}

var opWeightSum = func() (sum int) {
	for _, w := range opWeights {
		sum += w
	}
	return sum
}()

// mixedOp is one drawn request: its shape and the pool indexes of its
// query (one) or rows (columnRows).
type mixedOp struct {
	kind opKind
	rows []int
}

// mixedStream draws query-mixed operations over a pool of poolSize queries
// per application.
type mixedStream struct {
	rng      *rand.Rand
	poolSize int
}

func newMixedStream(seed int64, client, poolSize int) *mixedStream {
	return &mixedStream{rng: clientRand(seed, client), poolSize: poolSize}
}

func (s *mixedStream) next() mixedOp {
	r := s.rng.Intn(opWeightSum)
	kind := opFill
	for k, w := range opWeights {
		if r < w {
			kind = opKind(k)
			break
		}
		r -= w
	}
	n := 1
	if b, _ := kind.batch(); b {
		n = columnRows
	}
	op := mixedOp{kind: kind, rows: make([]int, n)}
	for i := range op.rows {
		op.rows[i] = s.rng.Intn(s.poolSize)
	}
	return op
}

// queryPool is the material of query-mixed: per application, poolSize
// requests whose columns are cut from the served mappings.
type queryPool struct {
	fill    []client.AutoFillRequest
	correct []client.AutoCorrectRequest
	join    []client.AutoJoinRequest
}

// mixedPoolSize is the number of distinct queries per application.
const mixedPoolSize = 256

// newQueryPool cuts n columns of up to columnRows pairs, each from a seeded
// mapping at a seeded offset. Parameters are explicit so the answer does
// not depend on server-side defaults.
func newQueryPool(seed int64, maps []*mapping.Mapping, n int) queryPool {
	var usable []*mapping.Mapping
	for _, m := range maps {
		if len(m.Pairs) >= 4 {
			usable = append(usable, m)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	var qp queryPool
	for i := 0; i < n; i++ {
		m := usable[rng.Intn(len(usable))]
		rows := min(columnRows, len(m.Pairs))
		off := rng.Intn(len(m.Pairs) - rows + 1)
		lefts, rights := make([]string, rows), make([]string, rows)
		for j, p := range m.Pairs[off : off+rows] {
			lefts[j], rights[j] = p.L, p.R
		}
		qp.fill = append(qp.fill, client.AutoFillRequest{
			Column:      lefts,
			Examples:    []client.Example{{Left: lefts[0], Right: rights[0]}},
			MinCoverage: 0.8,
		})
		// Mostly left values with a minority of right values mixed in: the
		// inconsistent column auto-correct detects.
		split := rows - rows/3
		mixed := append(append([]string{}, lefts[:split]...), rights[split:]...)
		qp.correct = append(qp.correct, client.AutoCorrectRequest{Column: mixed, MinEach: 2, MinCoverage: 0.8})
		qp.join = append(qp.join, client.AutoJoinRequest{KeysA: lefts, KeysB: rights, MinCoverage: 0.8})
	}
	return qp
}
