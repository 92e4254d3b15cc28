// Package table defines the core relational-table model shared by the whole
// pipeline: multi-column Tables as they appear in a corpus, and two-column
// BinaryTables (ordered column pairs) that are the unit of synthesis.
//
// A table corpus (Definition 3 in the paper) is simply a slice of Tables;
// package corpus builds indexes on top of it.
package table

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"mapsynth/internal/textnorm"
)

// Column is a single named column of string cells inside a Table.
type Column struct {
	// Name is the header of the column. Headers in real corpora are often
	// generic and undescriptive ("name", "code"); the synthesis pipeline
	// never trusts them, but baselines such as UnionDomain group by them.
	Name string
	// Values holds the cell values, one per row, aligned with sibling
	// columns of the same table.
	Values []string
}

// Table is one relational table extracted from a corpus.
type Table struct {
	// ID uniquely identifies the table within its corpus.
	ID int
	// Domain is the provenance bucket of the table: a web domain
	// ("en.wikipedia.org") for web corpora, or a file share for enterprise
	// spreadsheet corpora. Popularity statistics and the UnionDomain
	// baseline group by it.
	Domain string
	// Title is the page or file title the table was extracted from.
	Title string
	// Columns are the table's columns. All columns have the same number of
	// rows for well-formed tables; extraction noise may violate this and
	// NumRows uses the shortest column.
	Columns []Column
}

// NumRows returns the number of complete rows, i.e. the length of the
// shortest column. An empty table has zero rows.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	n := len(t.Columns[0].Values)
	for _, c := range t.Columns[1:] {
		if len(c.Values) < n {
			n = len(c.Values)
		}
	}
	return n
}

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.Columns) }

// ColumnNames returns the headers of all columns in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// String renders a short human-readable description of the table.
func (t *Table) String() string {
	return fmt.Sprintf("table#%d[%s](%s) %dx%d", t.ID, t.Domain,
		strings.Join(t.ColumnNames(), ","), t.NumRows(), t.NumColumns())
}

// Pair is one ordered (left, right) value pair of a binary relationship.
type Pair struct {
	L, R string
}

// String renders the pair as "L -> R".
func (p Pair) String() string { return p.L + " -> " + p.R }

// BinaryTable is an ordered two-column table: the candidate unit of mapping
// synthesis. It is extracted from a source Table by taking an ordered pair of
// its columns and deduplicating rows.
type BinaryTable struct {
	// ID uniquely identifies the candidate among all extracted candidates.
	ID int
	// TableID is the ID of the source Table.
	TableID int
	// Domain is copied from the source Table for provenance statistics.
	Domain string
	// LeftName and RightName are the source column headers.
	LeftName, RightName string
	// Pairs holds the deduplicated (left, right) value pairs in first-seen
	// order. Pairs with an empty left value are dropped at construction.
	Pairs []Pair

	// norm caches the normalized view, see Norm.
	norm atomic.Pointer[Norm]
}

// NormPair is one distinct normalized value pair of a BinaryTable.
type NormPair struct {
	// L and R are the normalized values; L is never empty.
	L, R string
	// Key is textnorm.PairKey(L, R), the pair's identity across tables.
	Key string
	// Src indexes the first of the table's Pairs that normalizes to this
	// pair — its representative surface form.
	Src int
}

// Norm is the normalized view of a BinaryTable: its distinct normalized
// pairs in first-seen order. Every value-based consumer — compatibility
// scoring, conflict resolution, mapping assembly — reads this view, so a
// table's values are normalized once however many stages look at them.
type Norm struct {
	Pairs []NormPair
	// rawLen is len(BinaryTable.Pairs) when the view was built.
	rawLen int
}

// Norm returns the table's normalized view. Extraction hands every
// candidate its view (SetNorm); for a table built elsewhere Norm builds it
// on first use. It is safe for concurrent use. The view describes Pairs as
// they were when it was set or built: edit Pairs only before that
// (appending is detected and rebuilds the view; SortPairs drops it).
func (b *BinaryTable) Norm() *Norm {
	if v := b.norm.Load(); v != nil && v.rawLen == len(b.Pairs) {
		return v
	}
	v := &Norm{Pairs: make([]NormPair, 0, len(b.Pairs)), rawLen: len(b.Pairs)}
	seen := make(map[string]struct{}, len(b.Pairs))
	for i, p := range b.Pairs {
		nl, nr, ok := textnorm.NormalizePair(p.L, p.R)
		if !ok {
			continue
		}
		k := textnorm.PairKey(nl, nr)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		// L and R alias the key, so the view holds one string per pair.
		v.Pairs = append(v.Pairs, NormPair{L: k[:len(nl)], R: k[len(nl)+1:], Key: k, Src: i})
	}
	b.norm.Store(v)
	return v
}

// SetNorm sets the table's normalized view to pairs, which must be what
// Norm would build from Pairs: a producer that already holds every value
// normalized (extraction interns each table's cells) hands the view over
// instead of having Norm normalize again.
func (b *BinaryTable) SetNorm(pairs []NormPair) {
	b.norm.Store(&Norm{Pairs: pairs, rawLen: len(b.Pairs)})
}

// NewBinaryTable builds a BinaryTable from two parallel value slices,
// deduplicating identical (l, r) pairs and dropping pairs whose left value is
// empty. The slices may differ in length; the shorter bounds the row count.
func NewBinaryTable(id, tableID int, domain, leftName, rightName string, left, right []string) *BinaryTable {
	n := len(left)
	if len(right) < n {
		n = len(right)
	}
	b := &BinaryTable{
		ID:        id,
		TableID:   tableID,
		Domain:    domain,
		LeftName:  leftName,
		RightName: rightName,
	}
	seen := make(map[Pair]struct{}, n)
	for i := 0; i < n; i++ {
		p := Pair{L: left[i], R: right[i]}
		if p.L == "" {
			continue
		}
		if _, ok := seen[p]; ok {
			continue
		}
		seen[p] = struct{}{}
		b.Pairs = append(b.Pairs, p)
	}
	return b
}

// Size returns the number of distinct value pairs in the candidate.
func (b *BinaryTable) Size() int { return len(b.Pairs) }

// LeftValues returns the distinct left-hand-side values in first-seen order.
func (b *BinaryTable) LeftValues() []string {
	seen := make(map[string]struct{}, len(b.Pairs))
	var out []string
	for _, p := range b.Pairs {
		if _, ok := seen[p.L]; ok {
			continue
		}
		seen[p.L] = struct{}{}
		out = append(out, p.L)
	}
	return out
}

// RightValues returns the distinct right-hand-side values in first-seen order.
func (b *BinaryTable) RightValues() []string {
	seen := make(map[string]struct{}, len(b.Pairs))
	var out []string
	for _, p := range b.Pairs {
		if _, ok := seen[p.R]; ok {
			continue
		}
		seen[p.R] = struct{}{}
		out = append(out, p.R)
	}
	return out
}

// Reverse returns a new BinaryTable with left and right swapped. The returned
// candidate keeps the same ID and provenance; callers that need distinct IDs
// must reassign them.
func (b *BinaryTable) Reverse() *BinaryTable {
	r := &BinaryTable{
		ID:        b.ID,
		TableID:   b.TableID,
		Domain:    b.Domain,
		LeftName:  b.RightName,
		RightName: b.LeftName,
		Pairs:     make([]Pair, len(b.Pairs)),
	}
	for i, p := range b.Pairs {
		r.Pairs[i] = Pair{L: p.R, R: p.L}
	}
	return r
}

// String renders a short human-readable description of the candidate.
func (b *BinaryTable) String() string {
	return fmt.Sprintf("bin#%d(%s->%s, %d pairs, %s)", b.ID, b.LeftName, b.RightName, len(b.Pairs), b.Domain)
}

// SortPairs sorts the candidate's pairs lexicographically (left, then right).
// Useful for deterministic output and tests.
func (b *BinaryTable) SortPairs() {
	b.norm.Store(nil)
	sort.Slice(b.Pairs, func(i, j int) bool {
		if b.Pairs[i].L != b.Pairs[j].L {
			return b.Pairs[i].L < b.Pairs[j].L
		}
		return b.Pairs[i].R < b.Pairs[j].R
	})
}

// PairSet returns the candidate's pairs as a set for O(1) membership tests.
func (b *BinaryTable) PairSet() map[Pair]struct{} {
	s := make(map[Pair]struct{}, len(b.Pairs))
	for _, p := range b.Pairs {
		s[p] = struct{}{}
	}
	return s
}
