// Package strmatch implements approximate string matching between cell
// values (Section 4.1 and Appendix B of the paper).
//
// Values from different tables often differ by minor syntactic variation
// ("Korea, Republic of" vs "Korea Republic", "American Samoa" vs
// "American Samoa (US)"). Two values are considered a match when their edit
// distance does not exceed a fractional, length-aware threshold
//
//	θed(v1, v2) = min{⌊|v1|·fed⌋, ⌊|v2|·fed⌋, ked}
//
// so short codes like "USA" require an exact match while long names tolerate
// a few edits. Distances are computed with a banded dynamic program in the
// spirit of Ukkonen's algorithm: only the diagonal band of width θed of the
// DP matrix is filled, making a single comparison O(θed · min{|v1|, |v2|}).
//
// Before the band is filled, a rune-set lower bound rejects pairs that are
// plainly too far apart. Every distinct rune of v1 that v2 lacks needs an
// edit of its own (each edit removes or replaces one rune of v1), and
// likewise the other way round. A value's Signature sets bit r mod 64 for
// each of its runes r, so a bit of s1 &^ s2 stands for at least one such
// rune, and
//
//	popcount(s1 &^ s2) > θed  or  popcount(s2 &^ s1) > θed
//
// proves the distance exceeds θed. Runes that collide mod 64 only weaken
// the bound, never make it unsound. It costs two AND-NOTs and two popcounts
// against an O(θed · n) dynamic program.
package strmatch

import (
	"math/bits"
	"unicode/utf8"
	"unsafe"

	"mapsynth/internal/textnorm"
)

// DefaultFracEd is the paper's fractional edit-distance threshold fed.
const DefaultFracEd = 0.2

// DefaultKEd is the paper's absolute cap ked on the edit-distance threshold.
const DefaultKEd = 10

// Matcher decides whether two cell values match approximately. It combines
// the fractional banded edit distance with an optional synonym feed. The
// zero value is not usable; construct with NewMatcher.
type Matcher struct {
	fracEd float64
	kEd    int
	syn    *SynonymFeed
}

// NewMatcher returns a Matcher with the given fractional threshold fed and
// absolute cap ked. Passing fed <= 0 or ked < 0 selects the paper defaults
// (0.2 and 10).
func NewMatcher(fracEd float64, kEd int) *Matcher {
	if fracEd <= 0 {
		fracEd = DefaultFracEd
	}
	if kEd < 0 {
		kEd = DefaultKEd
	}
	return &Matcher{fracEd: fracEd, kEd: kEd}
}

// SetSynonyms attaches a synonym feed; values known to be synonyms match
// regardless of edit distance. A nil feed detaches synonyms.
func (m *Matcher) SetSynonyms(s *SynonymFeed) { m.syn = s }

// Threshold returns θed for a pair of already-normalized values:
// min{⌊|v1|·fed⌋, ⌊|v2|·fed⌋, ked}. Lengths are in runes.
func (m *Matcher) Threshold(v1, v2 string) int {
	return m.threshold(utf8.RuneCountInString(v1), utf8.RuneCountInString(v2))
}

func (m *Matcher) threshold(n1, n2 int) int {
	t := int(float64(n1) * m.fracEd)
	if t2 := int(float64(n2) * m.fracEd); t2 < t {
		t = t2
	}
	if m.kEd < t {
		t = m.kEd
	}
	return t
}

// MatchNormalized reports whether two already-normalized values match:
// either exactly, via the synonym feed, or within the banded edit-distance
// threshold.
func (m *Matcher) MatchNormalized(v1, v2 string) bool {
	return v1 == v2 || m.MatchNormalizedLen(v1, v2, utf8.RuneCountInString(v1), utf8.RuneCountInString(v2))
}

// MatchNormalizedLen is MatchNormalized for callers that already hold the
// values' lengths in runes (n1, n2): comparing one value against many, they
// count once instead of once per comparison. A length gap beyond the
// threshold is rejected before any dynamic program runs.
func (m *Matcher) MatchNormalizedLen(v1, v2 string, n1, n2 int) bool {
	return m.MatchSig(v1, v2, n1, n2, 0, 0)
}

// MatchSig is MatchNormalizedLen for callers that also hold the values'
// rune-set signatures (s1, s2, from Signature): after the equality, synonym
// and length-gap checks, a pair the signatures prove to be more than θed
// edits apart is rejected before the banded DP runs (see the package doc).
// Zero signatures disable the bound. The values must be valid UTF-8, as
// normalized values are: one whose rune count equals its byte length is
// compared bytewise.
func (m *Matcher) MatchSig(v1, v2 string, n1, n2 int, s1, s2 uint64) bool {
	if v1 == v2 {
		return true
	}
	if m.syn != nil && m.syn.AreSynonyms(v1, v2) {
		return true
	}
	t := m.threshold(n1, n2)
	if t == 0 || n1-n2 > t || n2-n1 > t {
		return false
	}
	if bits.OnesCount64(s1&^s2) > t || bits.OnesCount64(s2&^s1) > t {
		return false
	}
	return withinDistanceString(v1, v2, n1 == len(v1) && n2 == len(v2), t)
}

// Signature returns s's rune-set signature: bit r mod 64 is set for every
// rune r of s. MatchSig's lower bound compares two signatures.
func Signature(s string) uint64 {
	var sig uint64
	for _, r := range s {
		sig |= 1 << (uint32(r) & 63)
	}
	return sig
}

// Match normalizes both values (case, punctuation, footnotes) and then
// applies MatchNormalized.
func (m *Matcher) Match(v1, v2 string) bool {
	return m.MatchNormalized(textnorm.Normalize(v1), textnorm.Normalize(v2))
}

// stackLen bounds the inputs WithinDistance handles without touching the
// heap: decoded runes and DP rows of values up to this long live in stack
// arrays. Cell values are names and codes, almost always shorter.
const stackLen = 64

// WithinDistance reports whether the Levenshtein distance between a and b is
// at most maxDist, using a banded DP (Algorithm 2 in the paper) that fills
// only cells within maxDist of the diagonal. It runs in
// O(maxDist · min{|a|, |b|}) time and O(min{|a|,|b|}) space. Distances are in
// runes; ASCII inputs are compared bytewise in place, others are decoded
// first.
func WithinDistance(a, b string, maxDist int) bool {
	return withinDistanceString(a, b, isASCII(a) && isASCII(b), maxDist)
}

// withinDistanceString is WithinDistance for callers that know whether both
// inputs are ASCII.
func withinDistanceString(a, b string, ascii bool, maxDist int) bool {
	if maxDist < 0 {
		return false
	}
	if ascii {
		// A read-only byte view of the strings: no copy, never written.
		return withinDistance(unsafe.Slice(unsafe.StringData(a), len(a)),
			unsafe.Slice(unsafe.StringData(b), len(b)), maxDist)
	}
	var bufA, bufB [stackLen]rune
	return withinDistance(appendRunes(bufA[:0], a), appendRunes(bufB[:0], b), maxDist)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// withinDistance is the banded DP over bytes (ASCII inputs) or runes.
func withinDistance[T byte | rune](ra, rb []T, maxDist int) bool {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	// ra is the shorter string. A length gap beyond the band cannot match.
	if len(rb)-len(ra) > maxDist {
		return false
	}
	n, m2 := len(ra), len(rb)
	if maxDist == 0 {
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
		return true
	}
	// prev[j] and cur[j] hold DP rows indexed by position in rb (0..m2).
	// Cells outside the band are sentinel (maxDist + 1): "too far".
	const pad = 1
	inf := maxDist + pad
	var rows [2 * (stackLen + 1)]int
	prev, cur := rows[:stackLen+1], rows[stackLen+1:]
	if m2 > stackLen {
		prev, cur = make([]int, m2+1), make([]int, m2+1)
	}
	for j := 0; j <= m2; j++ {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= n; i++ {
		lo := i - maxDist
		if lo < 1 {
			lo = 1
		}
		hi := i + maxDist
		if hi > m2 {
			hi = m2
		}
		// Left edge of the band.
		if lo == 1 {
			if i <= maxDist {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		}
		if lo > 1 {
			cur[lo-1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost        // substitution or match
			if d := prev[j] + 1; d < best { // deletion from ra
				best = d
			}
			if d := cur[j-1] + 1; d < best { // insertion into ra
				best = d
			}
			if best > inf {
				best = inf
			}
			cur[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if hi < m2 {
			cur[hi+1] = inf
		}
		if rowMin > maxDist {
			return false // the whole band exceeded the threshold
		}
		prev, cur = cur, prev
	}
	return prev[m2] <= maxDist
}

// Distance computes the exact Levenshtein distance between a and b with the
// classic full dynamic program. It is O(|a|·|b|) and intended for tests and
// small inputs; hot paths use WithinDistance.
func Distance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if d := prev[j] + 1; d < best {
				best = d
			}
			if d := cur[j-1] + 1; d < best {
				best = d
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}
