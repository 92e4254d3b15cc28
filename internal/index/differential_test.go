package index_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/index"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/textnorm"
)

// The reference below is the index's contract spelled out the slow way: for
// every mapping, count the query values its columns contain by exact
// membership, then rank with the documented comparators. The postings-driven
// query path must agree with it hit for hit, on heap and mapped sources.

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

func refLookupLeft(src index.Source, values []string, minCoverage float64) []index.Hit {
	normed := refNormalize(values)
	var hits []index.Hit
	for i := 0; i < src.Len() && len(normed) > 0; i++ {
		matched := 0
		for _, nv := range normed {
			if src.InLeft(i, nv) {
				matched++
			}
		}
		cov := float64(matched) / float64(len(normed))
		if matched > 0 && cov >= minCoverage {
			hits = append(hits, index.Hit{Index: i, Mapping: src.Mapping(i), Coverage: cov, Matched: matched})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Coverage != hits[b].Coverage {
			return hits[a].Coverage > hits[b].Coverage
		}
		da, db := hits[a].Mapping.NumDomains(), hits[b].Mapping.NumDomains()
		if da != db {
			return da > db
		}
		return hits[a].Index < hits[b].Index
	})
	return hits
}

// refMixedColumnHits takes minEach >= 1; the index documents anything lower
// as 1, which the test pins separately.
func refMixedColumnHits(src index.Source, values []string, minEach int, minCoverage float64) []index.Hit {
	normed := refNormalize(values)
	var hits []index.Hit
	for i := 0; i < src.Len() && len(normed) > 0; i++ {
		var leftVals, rightVals int
		for _, nv := range normed {
			switch {
			case src.InLeft(i, nv): // values on both sides count toward the left
				leftVals++
			case src.InRight(i, nv):
				rightVals++
			}
		}
		total := leftVals + rightVals
		cov := float64(total) / float64(len(normed))
		if leftVals >= minEach && rightVals >= minEach && cov >= minCoverage {
			hits = append(hits, index.Hit{Index: i, Mapping: src.Mapping(i), Coverage: cov, Matched: total})
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
			var image bytes.Buffer
			if err := snapshot.WriteV2(&image, res.Mappings); err != nil {
				t.Fatal(err)
			}
			h, err := snapshot.OpenBytes(image.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var leftHits, mixedHits int // the columns must not all miss
			for _, side := range []struct {
				name string
				ix   *index.MappingIndex
			}{{"heap", index.Build(res.Mappings)}, {"v2", index.FromSource(h)}} {
				ix := side.ix
				for q := 0; q < 150; q++ {
					col := randomColumn(rng, ix)
					for _, cov := range []float64{0, 0.5, 0.8, 1} {
						want := refLookupLeft(ix.Source(), col, cov)
						leftHits += len(want)
						if got := ix.LookupLeft(col, cov); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: LookupLeft(%q, %v)\n got %+v\nwant %+v", side.name, col, cov, got, want)
						}
						for _, minEach := range []int{-1, 0, 1, 2} {
							want := refMixedColumnHits(ix.Source(), col, max(minEach, 1), cov)
							mixedHits += len(want)
							if got := ix.MixedColumnHits(col, minEach, cov); !reflect.DeepEqual(got, want) {
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
