package strmatch

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestDistanceBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"usa", "usa", 0},
		{"usa", "rsa", 1},
		{"korea republic of", "korea republic", 3},
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestWithinDistanceAgreesWithFullDP(t *testing.T) {
	// Property: the banded check agrees with the exact distance for all
	// thresholds, on every path WithinDistance has: ASCII compared in
	// place, multibyte decoded to runes, one side of each, and inputs longer
	// than the stack rows (stackLen) on either path.
	rng := rand.New(rand.NewSource(7))
	ascii := []rune("abcd")
	multi := []rune("aé日𝄞") // 1-, 2-, 3- and 4-byte runes
	randStr := func(alphabet []rune, maxLen int) string {
		n := rng.Intn(maxLen)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	// mutate applies up to k random edits, so long strings stay within
	// reach of the larger thresholds instead of always being "far".
	mutate := func(s string, alphabet []rune, k int) string {
		r := []rune(s)
		for e := rng.Intn(k + 1); e > 0; e-- {
			pos := rng.Intn(len(r) + 1)
			switch op := rng.Intn(3); {
			case op == 0 || len(r) == 0 || pos == len(r):
				r = append(r[:pos], append([]rune{alphabet[rng.Intn(len(alphabet))]}, r[pos:]...)...)
			case op == 1:
				r = append(r[:pos], r[pos+1:]...)
			default:
				r[pos] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		return string(r)
	}
	check := func(a, b string) {
		t.Helper()
		d := Distance(a, b)
		for _, th := range []int{0, 1, 2, 3, 5, 8, 12} {
			if got, want := WithinDistance(a, b, th), d <= th; got != want {
				t.Fatalf("WithinDistance(%q, %q, %d) = %v, exact distance %d", a, b, th, got, d)
			}
			if WithinDistance(a, b, th) != WithinDistance(b, a, th) {
				t.Fatalf("WithinDistance(%q, %q, %d) is not symmetric", a, b, th)
			}
		}
	}
	for i := 0; i < 3000; i++ {
		check(randStr(ascii, 12), randStr(ascii, 12))
		check(randStr(multi, 12), randStr(multi, 12))
		check(randStr(ascii, 12), randStr(multi, 12))
	}
	for i := 0; i < 300; i++ {
		for _, alphabet := range [][]rune{ascii, multi} {
			a := randStr(alphabet, 3*stackLen)
			check(a, mutate(a, alphabet, 10))
			check(a, mutate(a, multi, 10))
			check(a, randStr(alphabet, 3*stackLen))
		}
	}
	// Exactly at the stack-row boundary.
	edge := strings.Repeat("a", stackLen)
	check(edge, edge+"b")
	check(edge[1:], edge)
	check(edge+"bc", edge+"cb")
}

func TestWithinDistanceShortInputsDoNotAllocate(t *testing.T) {
	for _, p := range [][2]string{
		{"korea republic of south korea", "korea republic of north korea"},
		{"côte d ivoire", "cote d ivoire"},
	} {
		if n := testing.AllocsPerRun(100, func() { WithinDistance(p[0], p[1], 5) }); n != 0 {
			t.Errorf("WithinDistance(%q, %q) allocates %v times, want 0", p[0], p[1], n)
		}
	}
}

func TestMatchNormalizedLenAgrees(t *testing.T) {
	// The length-aware entry point must decide exactly as MatchNormalized:
	// its early length-gap rejection is an optimisation, not a new rule.
	rng := rand.New(rand.NewSource(11))
	m := NewMatcher(0.2, 10)
	words := []string{"", "a", "usa", "rsa", "korea republic of", "korea republic",
		"american samoa", "american samoa us", "côte d ivoire", "cote d ivoire",
		strings.Repeat("x", 70), strings.Repeat("x", 68) + "yy"}
	for i := 0; i < 2000; i++ {
		a, b := words[rng.Intn(len(words))], words[rng.Intn(len(words))]
		want := a == b
		if !want {
			if th := m.Threshold(a, b); th > 0 {
				want = Distance(a, b) <= th
			}
		}
		got := m.MatchNormalizedLen(a, b, len([]rune(a)), len([]rune(b)))
		if got != want || m.MatchNormalized(a, b) != want {
			t.Fatalf("match(%q, %q) = %v / %v, want %v", a, b, got, m.MatchNormalized(a, b), want)
		}
	}
}

func TestWithinDistanceNegativeThreshold(t *testing.T) {
	if WithinDistance("a", "a", -1) {
		t.Error("negative threshold must never match")
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 20 || len(b) > 20 || len(c) > 20 {
			return true
		}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatcherThreshold(t *testing.T) {
	m := NewMatcher(0.2, 10)
	// Paper's Example 8: θed("american samoa", "american samoa (us)") = 2.
	th := m.Threshold("american samoa", "american samoa us")
	if th != 2 {
		t.Errorf("Threshold = %d, want 2", th)
	}
	// Short codes require exact matches.
	if m.Threshold("usa", "rsa") != 0 {
		t.Errorf("short codes should have zero threshold")
	}
	if m.MatchNormalized("usa", "rsa") {
		t.Error("USA must not match RSA")
	}
}

func TestMatcherApproximate(t *testing.T) {
	m := NewMatcher(0.2, 10)
	// Punctuation-only variation disappears in normalization.
	if !m.Match("Korea, Republic of", "Korea Republic of") {
		t.Error("punctuation variants should match")
	}
	// Small suffix variation within the fractional threshold.
	if !m.Match("Stockholm Arlanda Airport", "Stockholm Arlanda Airports") {
		t.Error("1-edit variation of a long name should match")
	}
	// The paper's Example-8 pair needs a slightly looser fraction because
	// our normalization keeps the separating space ("american samoa" vs
	// "american samoa us" is distance 3).
	loose := NewMatcher(0.25, 10)
	if !loose.Match("American Samoa", "American Samoa (US)") {
		t.Error("decorated variant should match at fed=0.25")
	}
	if m.Match("Austria", "Australia") {
		t.Error("Austria must not match Australia (distance 3 > threshold 1)")
	}
}

func TestMatcherKEdCap(t *testing.T) {
	m := NewMatcher(0.5, 2) // high fraction, tight cap
	long1 := strings.Repeat("a", 40)
	long2 := strings.Repeat("a", 37) + "bbb"
	if m.MatchNormalized(long1, long2) {
		t.Error("cap ked=2 must reject distance-3 pairs")
	}
}

func TestMatcherDefaults(t *testing.T) {
	m := NewMatcher(0, -1)
	if m.fracEd != DefaultFracEd || m.kEd != DefaultKEd {
		t.Errorf("defaults not applied: %v %v", m.fracEd, m.kEd)
	}
}

func TestSynonymFeed(t *testing.T) {
	s := NewSynonymFeed()
	s.AddGroup("us virgin islands", "united states virgin islands")
	s.AddGroup("united states virgin islands", "virgin islands of the united states")
	if !s.AreSynonyms("us virgin islands", "virgin islands of the united states") {
		t.Error("synonymy should be transitive across group merges")
	}
	if s.AreSynonyms("us virgin islands", "british virgin islands") {
		t.Error("unrelated values must not be synonyms")
	}
	if !s.AreSynonyms("x", "x") {
		t.Error("equal values are always synonyms")
	}

	m := NewMatcher(0.2, 10)
	m.SetSynonyms(s)
	if !m.MatchNormalized("us virgin islands", "virgin islands of the united states") {
		t.Error("matcher should honor the synonym feed")
	}
}

func TestSynonymFeedMergeGroups(t *testing.T) {
	s := NewSynonymFeed()
	s.AddGroup("a", "b")
	s.AddGroup("c", "d")
	s.AddGroup("b", "c") // merges both groups
	if !s.AreSynonyms("a", "d") {
		t.Error("group merge failed")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

// FuzzSignatureBound checks the rune-set bound against the exact distance:
// whenever it rejects a pair at a threshold, the pair is more than that
// many edits apart. And MatchSig, which applies the bound, decides every
// pair as MatchNormalizedLen does without it, for a tight and a loose
// matcher. Seeds cover ASCII, accented and CJK values and runes equal mod
// 64 ('a' and '!', 'é' and ')', '日' and '%'), which share a signature bit.
func FuzzSignatureBound(f *testing.F) {
	for _, p := range [][2]string{
		{"korea republic of", "korea republic"}, {"usa", "rsa"}, {"abcdef", "ghijkl"},
		{"côte d ivoire", "cote d ivoire"}, {"österreich", "osterreich"},
		{"日本国", "日本"}, {"東京都", "京都府"},
		{"abc", "!bc"}, {"café", "caf)"}, {"日本", "%本"}, {"", "a"},
	} {
		f.Add(p[0], p[1], uint8(2))
	}
	matchers := []*Matcher{NewMatcher(0.2, 10), NewMatcher(1, 10)}
	f.Fuzz(func(t *testing.T, a, b string, th uint8) {
		sa, sb := Signature(a), Signature(b)
		limit := int(th % 16)
		if bits.OnesCount64(sa&^sb) > limit || bits.OnesCount64(sb&^sa) > limit {
			if d := Distance(a, b); d <= limit {
				t.Fatalf("bound rejects %q, %q at %d but the distance is %d", a, b, limit, d)
			}
		}
		na, nb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
		for _, m := range matchers {
			if got, want := m.MatchSig(a, b, na, nb, sa, sb), m.MatchNormalizedLen(a, b, na, nb); got != want {
				t.Fatalf("MatchSig(%q, %q) = %v, MatchNormalizedLen = %v (fed %v)", a, b, got, want, m.fracEd)
			}
		}
	})
}
