package textnorm

import (
	"strings"
	"testing"
	"unicode"
)

// normalizeRuneLoop is Normalize as it stood before the already-normal fast
// path, kept verbatim as the oracle: the fast path may only skip work, never
// change a result.
func normalizeRuneLoop(s string) string {
	if s == "" {
		return ""
	}
	s = stripFootnotes(s)
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true // true suppresses a leading space
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			// Punctuation and whitespace both act as separators.
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// FuzzNormalize: the fast path agrees with the rune loop on every input,
// and what Normalize returns is a fixed point (so a normalized value handed
// back in — a cached key, a query echoing an answer — stays put).
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "usa", "south korea", "south  korea", " usa", "usa ", "USA",
		"Algeria[1]", "a[b", "a]b", "[[x]]y", "Côte d'Ivoire", "côte d ivoire",
		"3.5", "a\tb", "a b", "\x1f", "İstanbul", "ǅ", "ß", "a\xffb", "①②",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Normalize(s), normalizeRuneLoop(s)
		if got != want {
			t.Fatalf("Normalize(%q) = %q, rune loop gives %q", s, got, want)
		}
		if again := Normalize(got); again != got {
			t.Fatalf("Normalize(%q) = %q is not a fixed point: normalizes to %q", s, got, again)
		}
	})
}

func TestNormalizeAlreadyNormalDoesNotAllocate(t *testing.T) {
	for _, s := range []string{"", "usa", "south korea", "a 1 b 2"} {
		if n := testing.AllocsPerRun(100, func() { _ = Normalize(s) }); n != 0 {
			t.Errorf("Normalize(%q) allocates %v times, want 0", s, n)
		}
	}
}
