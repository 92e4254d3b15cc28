package snapshot

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
)

// synthesized runs the default pipeline over a generated corpus.
func synthesized(t testing.TB, c *corpusgen.Corpus) []*mapping.Mapping {
	t.Helper()
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), c.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return res.Mappings
}

// sharesTerm reports whether some normalized left value of tail is also one
// of base's: a split where the tail's strings hit the prefix's intern table
// and its terms merge into the prefix's postings runs.
func sharesTerm(base, tail []*mapping.Mapping) bool {
	seen := make(map[string]bool)
	for _, m := range base {
		left, _ := m.NormalizedValues()
		for _, v := range left {
			seen[v] = true
		}
	}
	for _, m := range tail {
		left, _ := m.NormalizedValues()
		for _, v := range left {
			if seen[v] {
				return true
			}
		}
	}
	return false
}

// checkPrefixImage requires the prefix's image of tail to be byte-equal to
// the whole-set encoding want, and to verify.
func checkPrefixImage(t *testing.T, p *Prefix, tail []*mapping.Mapping, want []byte) {
	t.Helper()
	h, err := p.Image(tail)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h.Bytes(), want) {
		t.Fatalf("prefix image (%d bytes) differs from WriteV2 (%d bytes)", len(h.Bytes()), len(want))
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("Verify on a prefix image: %v", err)
	}
}

// TestPrefixImageMatchesWriteV2 is the differential contract of Prefix:
// NewPrefix(maps[:k]).Image(maps[k:]) is byte-identical to WriteV2(maps),
// for the empty and the full prefix and for splits whose tail strings and
// terms also occur in the base.
func TestPrefixImageMatchesWriteV2(t *testing.T) {
	type tc struct {
		name   string
		maps   func(testing.TB) []*mapping.Mapping
		splits func(n int) []int // nil: every k
		long   bool
	}
	interior := func(n int) []int { return []int{0, 1, n / 3, n / 2, n - 160, n - 1, n} }
	cases := []tc{
		// The fixture twice over, renumbered: every string and term of
		// the second copy is already in the first.
		{"fixture-twice", func(testing.TB) []*mapping.Mapping {
			maps := fixtureMappings()
			for _, m := range fixtureMappings() {
				m.ID += len(maps)
				maps = append(maps, m)
			}
			return maps
		}, nil, false},
		{"web-sampled", smallMappings, nil, false},
		{"enterprise-seed42", func(t testing.TB) []*mapping.Mapping {
			return synthesized(t, corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 42}))
		}, interior, false},
		{"web-seed42-scale2", func(t testing.TB) []*mapping.Mapping {
			return synthesized(t, corpusgen.GenerateWeb(corpusgen.Options{Seed: 42, Scale: 2}))
		}, interior, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("bench-size corpus skipped under -short")
			}
			maps := c.maps(t)
			var want bytes.Buffer
			if err := WriteV2(&want, maps); err != nil {
				t.Fatal(err)
			}
			var splits []int
			if c.splits == nil {
				for k := 0; k <= len(maps); k++ {
					splits = append(splits, k)
				}
			} else {
				for _, k := range c.splits(len(maps)) {
					if k >= 0 && k <= len(maps) {
						splits = append(splits, k)
					}
				}
			}
			shared := false
			for _, k := range splits {
				p, err := NewPrefix(maps[:k])
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					checkPrefixImage(t, p, maps[k:], want.Bytes())
					// A prefix is reusable: a second image is the same bytes.
					checkPrefixImage(t, p, maps[k:], want.Bytes())
				})
				shared = shared || sharesTerm(maps[:k], maps[k:])
			}
			if !shared {
				t.Fatal("no split has a tail term that also occurs in the base")
			}
		})
	}
}

// TestPrefixOutlivesMappedBase builds a prefix from an mmapped handle's
// materialized mappings, whose strings are views into the mapped region,
// then unmaps it. The prefix must have copied every string it keeps: a tail
// whose strings and terms also occur in the base still encodes to the
// whole-set bytes without touching the unmapped region.
func TestPrefixOutlivesMappedBase(t *testing.T) {
	maps := synthesized(t, corpusgen.GenerateEnterprise(corpusgen.Options{Seed: 42}))
	k := len(maps) / 2
	if !sharesTerm(maps[:k], maps[k:]) {
		t.Fatal("tail shares no term with the base; the test would not probe the intern table")
	}
	var want bytes.Buffer
	if err := WriteV2(&want, maps); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := WriteFileV2(path, maps[:k]); err != nil {
		t.Fatal(err)
	}
	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mapped() {
		t.Skip("no mmap on this platform: nothing is unmapped")
	}
	p, err := NewPrefix(h.Materialize())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	checkPrefixImage(t, p, maps[k:], want.Bytes())
}

// TestPrefixConcurrentImages: a Prefix is immutable, so images built from
// it at the same time are each byte-identical to the whole-set encoding.
func TestPrefixConcurrentImages(t *testing.T) {
	maps := smallMappings(t)
	var want bytes.Buffer
	if err := WriteV2(&want, maps); err != nil {
		t.Fatal(err)
	}
	k := len(maps) / 2
	p, err := NewPrefix(maps[:k])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				h, err := p.Image(maps[k:])
				if err == nil && !bytes.Equal(h.Bytes(), want.Bytes()) {
					err = fmt.Errorf("concurrent image differs from WriteV2")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
