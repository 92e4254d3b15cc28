// Package corpusio persists table corpora and synthesized mappings: JSON
// for corpora (lossless round-trip of the table model) and TSV for mapping
// exports handed to human curators (Section 4.3 of the paper envisions
// curation over synthesized results, which requires a reviewable artifact).
package corpusio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"mapsynth/internal/mapping"
	"mapsynth/internal/table"
)

// WriteTablesJSON streams a corpus to w as a JSON array of tables.
func WriteTablesJSON(w io.Writer, tables []*table.Table) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tables)
}

// ReadTablesJSON parses a corpus written by WriteTablesJSON. IDs are
// reassigned densely in array order so downstream stages can rely on them.
func ReadTablesJSON(r io.Reader) ([]*table.Table, error) {
	var tables []*table.Table
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tables); err != nil {
		return nil, fmt.Errorf("corpusio: decoding tables: %w", err)
	}
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("corpusio: table %d is null", i)
		}
		t.ID = i
	}
	return tables, nil
}

// csvField escapes a value for the TSV exports: tabs and newlines become
// spaces (cell values never legitimately contain them after extraction).
func tsvField(s string) string {
	s = strings.ReplaceAll(s, "\t", " ")
	s = strings.ReplaceAll(s, "\n", " ")
	return strings.ReplaceAll(s, "\r", " ")
}

// WriteMappingsTSV exports synthesized mappings for curation review: one
// row per value pair with the mapping id, provenance counts and support.
// Rows are ordered by mapping, then pair, so diffs between pipeline runs
// stay reviewable.
func WriteMappingsTSV(w io.Writer, mappings []*mapping.Mapping) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "mapping_id\tleft\tright\tsupport\ttables\tdomains"); err != nil {
		return err
	}
	for _, m := range mappings {
		sups := m.PairSupports()
		for i, p := range m.Pairs {
			if _, err := fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\t%d\n",
				m.ID, tsvField(p.L), tsvField(p.R), sups[i],
				m.NumTables(), m.NumDomains()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMappingPairsTSV parses a file written by WriteMappingsTSV back into
// per-mapping pair lists keyed by mapping id. Round-tripping supports
// curation workflows where a human edits the TSV and the result is
// re-imported.
func ReadMappingPairsTSV(r io.Reader) (map[int][]table.Pair, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	out := make(map[int][]table.Pair)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if line == 1 && strings.HasPrefix(text, "mapping_id\t") {
			continue // header
		}
		if strings.TrimSpace(text) == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) < 3 {
			return nil, fmt.Errorf("corpusio: line %d: want >= 3 fields, got %d", line, len(fields))
		}
		var id int
		if _, err := fmt.Sscanf(fields[0], "%d", &id); err != nil {
			return nil, fmt.Errorf("corpusio: line %d: bad mapping id %q", line, fields[0])
		}
		out[id] = append(out[id], table.Pair{L: fields[1], R: fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MappingIDs returns the sorted mapping ids present in a parsed TSV.
func MappingIDs(m map[int][]table.Pair) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
