package index_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/textnorm"
)

// The reference below is the index's contract spelled out the slow way, from
// the mappings themselves rather than from the Source under test: for every
// mapping, count the query values its columns contain by exact membership
// in NormalizedValues, then rank with the documented comparators. The
// postings-driven query path over a v2 image — built in memory or opened
// from the written file — must agree with it hit for hit.

// refHit is an index.Hit with the mapping reduced to its identity: the hit
// carries a mapping materialized from the image, the reference the original.
type refHit struct {
	Index, ID, Pairs int
	Coverage         float64
	Matched          int
}

func project(hits []index.Hit) []refHit {
	var out []refHit
	for _, h := range hits {
		out = append(out, refHit{h.Index, h.Mapping.ID, len(h.Mapping.Pairs), h.Coverage, h.Matched})
	}
	return out
}

// refCorpus is the per-mapping exact membership the reference counts over.
type refCorpus struct {
	maps        []*mapping.Mapping
	left, right []map[string]bool
}

func newRefCorpus(maps []*mapping.Mapping) *refCorpus {
	rc := &refCorpus{maps: maps}
	for _, m := range maps {
		l, r := m.NormalizedValues()
		ls, rs := map[string]bool{}, map[string]bool{}
		for _, v := range l {
			ls[v] = true
		}
		for _, v := range r {
			rs[v] = true
		}
		rc.left, rc.right = append(rc.left, ls), append(rc.right, rs)
	}
	return rc
}

func refNormalize(values []string) []string {
	var normed []string
	seen := map[string]bool{}
	for _, v := range values {
		if nv := textnorm.Normalize(v); nv != "" && !seen[nv] {
			seen[nv] = true
			normed = append(normed, nv)
		}
	}
	return normed
}

func (rc *refCorpus) lookupLeft(values []string, minCoverage float64) []refHit {
	normed := refNormalize(values)
	var hits []refHit
	for i, m := range rc.maps {
		matched := 0
		for _, nv := range normed {
			if rc.left[i][nv] {
				matched++
			}
		}
		cov := float64(matched) / float64(max(len(normed), 1))
		if matched > 0 && cov >= minCoverage {
			hits = append(hits, refHit{i, m.ID, len(m.Pairs), cov, matched})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Coverage != hits[b].Coverage {
			return hits[a].Coverage > hits[b].Coverage
		}
		da, db := rc.maps[hits[a].Index].NumDomains(), rc.maps[hits[b].Index].NumDomains()
		if da != db {
			return da > db
		}
		return hits[a].Index < hits[b].Index
	})
	return hits
}

// mixedColumnHits takes minEach >= 1; the index documents anything lower as
// 1, which the test pins separately.
func (rc *refCorpus) mixedColumnHits(values []string, minEach int, minCoverage float64) []refHit {
	normed := refNormalize(values)
	var hits []refHit
	for i, m := range rc.maps {
		var leftVals, rightVals int
		for _, nv := range normed {
			switch {
			case rc.left[i][nv]: // values on both sides count toward the left
				leftVals++
			case rc.right[i][nv]:
				rightVals++
			}
		}
		total := leftVals + rightVals
		cov := float64(total) / float64(max(len(normed), 1))
		if leftVals >= minEach && rightVals >= minEach && cov >= minCoverage {
			hits = append(hits, refHit{i, m.ID, len(m.Pairs), cov, total})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Coverage != hits[b].Coverage {
			return hits[a].Coverage > hits[b].Coverage
		}
		return hits[a].Index < hits[b].Index
	})
	return hits
}

// randomColumn draws one query column: values of one or two mappings taken
// from the left, the right or both sides, salted with absent, empty,
// duplicated and re-cased entries.
func randomColumn(rng *rand.Rand, ix *index.MappingIndex) []string {
	var col []string
	for range 1 + rng.Intn(2) {
		pairs := ix.Mapping(rng.Intn(ix.Len())).Pairs
		side := rng.Intn(3) // left, right, mixed
		for range rng.Intn(12) {
			p := pairs[rng.Intn(len(pairs))]
			if side == 0 || (side == 2 && rng.Intn(2) == 0) {
				col = append(col, p.L)
			} else {
				col = append(col, p.R)
			}
		}
	}
	for range rng.Intn(4) {
		switch rng.Intn(4) {
		case 0:
			col = append(col, fmt.Sprintf("no-such-value-%d", rng.Int()))
		case 1:
			col = append(col, "")
		case 2:
			if len(col) > 0 {
				col = append(col, col[rng.Intn(len(col))])
			}
		case 3:
			if len(col) > 0 {
				j := rng.Intn(len(col))
				col[j] = strings.ToUpper(col[j])
			}
		}
	}
	rng.Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
	return col
}

func TestQueriesMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 11, 42, 2017} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, SampleFraction: 0.2})
			res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), corpus.Tables)
			if err != nil || len(res.Mappings) == 0 {
				t.Fatalf("synthesis: %d mappings, %v", len(res.Mappings), err)
			}
			ref := newRefCorpus(res.Mappings)
			mem, err := snapshot.FromMappings(res.Mappings)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "corpus.snap")
			if err := snapshot.WriteFileV2(path, res.Mappings); err != nil {
				t.Fatal(err)
			}
			file, err := snapshot.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			rng := rand.New(rand.NewSource(seed))
			var leftHits, mixedHits int // the columns must not all miss
			for _, side := range []struct {
				name string
				ix   *index.MappingIndex
			}{{"memory", index.FromSource(mem)}, {"file", index.FromSource(file)}} {
				ix := side.ix
				for q := 0; q < 150; q++ {
					col := randomColumn(rng, ix)
					for _, cov := range []float64{0, 0.5, 0.8, 1} {
						want := ref.lookupLeft(col, cov)
						leftHits += len(want)
						if got := project(ix.LookupLeft(col, cov)); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: LookupLeft(%q, %v)\n got %+v\nwant %+v", side.name, col, cov, got, want)
						}
						for _, minEach := range []int{-1, 0, 1, 2} {
							want := ref.mixedColumnHits(col, max(minEach, 1), cov)
							mixedHits += len(want)
							if got := project(ix.MixedColumnHits(col, minEach, cov)); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: MixedColumnHits(%q, %d, %v)\n got %+v\nwant %+v", side.name, col, minEach, cov, got, want)
							}
						}
					}
				}
			}
			if leftHits == 0 || mixedHits == 0 {
				t.Fatalf("columns produced %d left and %d mixed hits; the comparison is vacuous", leftHits, mixedHits)
			}
		})
	}
}
