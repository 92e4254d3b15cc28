// Package textnorm normalizes cell values before comparison.
//
// Real table cells carry syntactic noise that must not defeat value-based
// matching: inconsistent letter case, surrounding whitespace, punctuation
// variants ("Korea, Republic of" vs "Korea Republic of"), and extraneous
// artifacts such as footnote marks ("Algeria[1]", see Figure 2 in the paper).
// Normalize strips all of these so exact-match blocking catches most true
// matches cheaply; the remaining variation is handled by approximate string
// matching in package strmatch.
package textnorm

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize canonicalizes a cell value for comparison: it lower-cases the
// value, removes footnote marks like "[1]" or "[a]", replaces punctuation
// with spaces, and collapses runs of whitespace. The empty string normalizes
// to itself. A value that is already normal is returned as is, without
// allocating — the common case when serving normalizes query values and when
// corpora carry lower-case codes.
func Normalize(s string) string {
	if isNormal(s) {
		return s
	}
	if out, ok := normalizeASCII(s); ok {
		return out
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

// isNormal reports whether s is a fixed point of Normalize that can be
// recognised bytewise: ASCII lower-case letters and digits, separated by
// single spaces, with no space at either end. (Normal values with non-ASCII
// letters exist too; they take the general path and come out equal.)
func isNormal(s string) bool {
	prevSpace := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			prevSpace = false
		case c == ' ' && !prevSpace:
			prevSpace = true
		default:
			return false
		}
	}
	return !prevSpace || s == ""
}

// normalizeASCII is Normalize for the bulk of real cells — ASCII text
// without footnote brackets — done bytewise into a buffer that stays on the
// stack for values of ordinary length, so it allocates only its result. It
// reports false, having done nothing, for any other input.
func normalizeASCII(s string) (string, bool) {
	var stack [64]byte
	buf := stack[:0]
	prevSpace := true // true suppresses a leading space
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf || c == '[':
			return "", false
		case 'A' <= c && c <= 'Z':
			buf = append(buf, c+('a'-'A'))
			prevSpace = false
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			buf = append(buf, c)
			prevSpace = false
		case !prevSpace:
			buf = append(buf, ' ')
			prevSpace = true
		}
	}
	if prevSpace && len(buf) > 0 {
		buf = buf[:len(buf)-1]
	}
	return string(buf), true
}

// stripFootnotes removes bracketed footnote markers such as "[1]", "[a]",
// "[note 2]" anywhere in the value. Unbalanced brackets are left untouched.
func stripFootnotes(s string) string {
	if !strings.ContainsRune(s, '[') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	depth := 0
	for _, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			if depth > 0 {
				depth--
				continue
			}
			b.WriteRune(r)
		default:
			if depth == 0 {
				b.WriteRune(r)
			}
		}
	}
	if depth != 0 {
		// Unbalanced: be conservative and return the original.
		return s
	}
	return b.String()
}

// NormalizePair normalizes both sides of a (left, right) value pair and
// reports whether the left side survived normalization (a pair whose left
// normalizes to the empty string is useless for mapping synthesis).
func NormalizePair(l, r string) (nl, nr string, ok bool) {
	nl = Normalize(l)
	nr = Normalize(r)
	return nl, nr, nl != ""
}

// PairKey builds a single collision-free string key for a normalized value
// pair, suitable as a map key or blocking token. The separator byte 0x1f
// (unit separator) cannot appear in normalized values.
func PairKey(nl, nr string) string {
	return nl + "\x1f" + nr
}

// SplitPairKey splits a key built by PairKey back into its two halves.
func SplitPairKey(key string) (nl, nr string) {
	i := strings.IndexByte(key, 0x1f)
	if i < 0 {
		return key, ""
	}
	return key[:i], key[i+1:]
}
