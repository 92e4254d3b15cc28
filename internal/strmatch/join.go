package strmatch

import (
	"context"
	"math/bits"
	"slices"

	"mapsynth/internal/pool"
)

// Neighbours is a Matcher's answer over one set of distinct values: for
// every value, the other values of the set it matches. Value i's list is
// ids[off[i]:off[i+1]], ascending.
type Neighbours struct {
	off []int32
	ids []uint32
}

// Of returns the indices of the values matching value i, ascending. The
// slice is the list's own: callers must not modify it.
func (n *Neighbours) Of(i uint32) []uint32 { return n.ids[n.off[i]:n.off[i+1]] }

// Neighbours returns, for every value of vals, the indices of the other
// values MatchSig accepts against it. vals must be distinct and valid UTF-8,
// and lens and sigs their rune counts and Signatures, as MatchSig takes
// them. Synonym-feed matches are in the lists too.
//
// Pairs within the edit threshold are found with the pigeonhole filter of
// Pass-Join (Li et al., VLDB 2011): split the shorter value of a pair into
// t+1 segments, and an edit script of at most t operations leaves one of
// them intact in the longer value, at a start that Pass-Join's
// multi-match-aware selection bounds: for segment i (from 0) of a value d
// runes shorter, within i of the segment's own start and within t-i of it
// shifted by d. Every value's segments go into one hash directory; each
// value then probes, for every shorter-or-equal length its threshold
// admits, each segment's substrings in that window, and every value a probe
// hits is verified with MatchSig. The probing fans out over p; the lists are the
// same for any worker count. Cancellation returns ctx's error.
//
// The filter reads the threshold only through the matcher and relies on
// one property of it: a pair's threshold never exceeds either value's own,
// threshold(n, n).
func (m *Matcher) Neighbours(ctx context.Context, vals []string, lens []int32, sigs []uint64, p *pool.Pool) (*Neighbours, error) {
	dir := m.segmentDirectory(vals, lens)
	chunks := min(len(vals), 4*max(p.Workers(), 1))
	found := make([][]uint64, chunks) // per chunk: x<<32 | y for every verified pair, x shorter
	if err := p.ForEach(ctx, chunks, func(c int) {
		stamp := make([]int32, len(vals)) // stamp[x] == y+1: x already considered for y
		var offs []int
		var out []uint64
		for y := c * len(vals) / chunks; y < (c+1)*len(vals)/chunks; y++ {
			offs = runeOffsets(vals[y], offs)
			m.probe(dir, vals, lens, y, offs, func(x int32) {
				if x == int32(y) || stamp[x] == int32(y)+1 || lens[x] == lens[y] && x > int32(y) {
					return // the probe from the other value verifies an equal-length pair
				}
				stamp[x] = int32(y) + 1
				if m.MatchSig(vals[x], vals[y], int(lens[x]), int(lens[y]), sigs[x], sigs[y]) {
					out = append(out, uint64(x)<<32|uint64(y))
				}
			})
		}
		found[c] = out
	}); err != nil {
		return nil, err
	}
	pairs := slices.Concat(found...)
	if m.syn != nil {
		pairs = m.synonymPairs(vals, pairs)
	}

	n := &Neighbours{off: make([]int32, len(vals)+1), ids: make([]uint32, 2*len(pairs))}
	for _, xy := range pairs {
		n.off[xy>>32+1]++
		n.off[uint32(xy)+1]++
	}
	for i := range vals {
		n.off[i+1] += n.off[i]
	}
	next := slices.Clone(n.off[:len(vals)])
	for _, xy := range pairs {
		x, y := uint32(xy>>32), uint32(xy)
		n.ids[next[x]], n.ids[next[y]] = y, x
		next[x]++
		next[y]++
	}
	// Sort each list; a synonym pair the edit filter also found is there
	// twice, so compact as well.
	w := int32(0)
	for i := range vals {
		list := n.ids[n.off[i]:n.off[i+1]]
		slices.Sort(list)
		list = slices.Compact(list)
		n.off[i] = w
		w += int32(copy(n.ids[w:], list))
	}
	n.off[len(vals)] = w
	n.ids = n.ids[:w]
	return n, nil
}

// segEntry is one segment of one value in the directory.
type segEntry struct {
	h  uint64 // segHash of the value's length, the segment's index and bytes
	id int32  // the value
}

// segDirectory indexes every value's segments by hash: the entries whose
// hash has top bits b are entries[start[b]:start[b+1]]. Values too short to
// split into t+1 non-empty segments are listed by length in short instead.
type segDirectory struct {
	entries []segEntry
	start   []int32
	shift   uint
	short   map[int32][]int32
}

// segment returns the start and length, in runes, of segment i of a value
// of n runes split into t+1 segments: the first ones ⌊n/(t+1)⌋ long, the
// last n mod (t+1) one rune longer.
func segment(n, t, i int) (start, length int) {
	k := t + 1
	base, short := n/k, k-n%k
	if i < short {
		return i * base, base
	}
	return short*base + (i-short)*(base+1), base + 1
}

// segHash hashes a segment's bytes (FNV-1a) seeded with the length of the
// value it was cut from and its index, so segments only meet their peers.
func segHash(n, i int, s string) uint64 {
	h := (14695981039346656037 ^ uint64(n)<<20 ^ uint64(i)) * 1099511628211
	for j := 0; j < len(s); j++ {
		h = (h ^ uint64(s[j])) * 1099511628211
	}
	return h
}

// runeOffsets returns the byte offset of every rune of s, and len(s) last.
func runeOffsets(s string, dst []int) []int {
	dst = dst[:0]
	for i := range s {
		dst = append(dst, i)
	}
	return append(dst, len(s))
}

// segmentDirectory splits every value that can match within a positive
// threshold into its segments and files them by hash.
func (m *Matcher) segmentDirectory(vals []string, lens []int32) *segDirectory {
	d := &segDirectory{short: make(map[int32][]int32)}
	var offs []int
	for x, v := range vals {
		n := int(lens[x])
		t := m.threshold(n, n)
		if t == 0 {
			continue // no pair with it has a positive threshold
		}
		if n <= t {
			d.short[lens[x]] = append(d.short[lens[x]], int32(x))
			continue
		}
		offs = runeOffsets(v, offs)
		for i := 0; i <= t; i++ {
			st, ln := segment(n, t, i)
			d.entries = append(d.entries, segEntry{segHash(n, i, v[offs[st]:offs[st+ln]]), int32(x)})
		}
	}
	// Counting sort by the top bits: about one entry per bucket.
	b := uint(bits.Len(uint(len(d.entries))))
	d.shift = 64 - b
	d.start = make([]int32, 1<<b+1)
	for _, e := range d.entries {
		d.start[e.h>>d.shift+1]++
	}
	for i := 1; i < len(d.start); i++ {
		d.start[i] += d.start[i-1]
	}
	sorted := make([]segEntry, len(d.entries))
	next := slices.Clone(d.start[:len(d.start)-1])
	for _, e := range d.entries {
		sorted[next[e.h>>d.shift]] = e
		next[e.h>>d.shift]++
	}
	d.entries = sorted
	return d
}

// probe calls fn with every value of the directory that may lie within
// the threshold of value y and is not longer than it, some more than once;
// offs holds y's rune offsets.
func (m *Matcher) probe(d *segDirectory, vals []string, lens []int32, y int, offs []int, fn func(x int32)) {
	ny := int(lens[y])
	ty := m.threshold(ny, ny) // no pair with y has a larger threshold
	v := vals[y]
	for n := ny; n >= 1 && ny-n <= ty; n-- {
		if tp := m.threshold(n, ny); tp == 0 || ny-n > tp {
			continue
		}
		t := m.threshold(n, n) // how values of n runes were segmented
		if n <= t {
			for _, x := range d.short[int32(n)] {
				fn(x)
			}
			continue
		}
		// Multi-match-aware windows (Pass-Join's substring selection): with
		// y longer by gap, segment i can only match at a start within i of
		// its own and within t-i of its own shifted by gap.
		gap := ny - n
		for i := 0; i <= t; i++ {
			st, ln := segment(n, t, i)
			for q := max(0, st-i, st+gap-(t-i)); q <= min(st+i, st+gap+(t-i), ny-ln); q++ {
				h := segHash(n, i, v[offs[q]:offs[q+ln]])
				b := h >> d.shift
				for _, e := range d.entries[d.start[b]:d.start[b+1]] {
					if e.h == h {
						fn(e.id)
					}
				}
			}
		}
	}
}

// synonymPairs appends to pairs every pair of values in one synonym group.
func (m *Matcher) synonymPairs(vals []string, pairs []uint64) []uint64 {
	groups := make(map[int][]uint32)
	for x, v := range vals {
		if g, ok := m.syn.Group(v); ok {
			groups[g] = append(groups[g], uint32(x))
		}
	}
	for _, members := range groups {
		for i, x := range members {
			for _, y := range members[i+1:] {
				pairs = append(pairs, uint64(x)<<32|uint64(y))
			}
		}
	}
	return pairs
}
