package apps

import "mapsynth/internal/table"

// LookupQuery is one key for Session.Lookup.
type LookupQuery struct {
	Key string
}

// LookupResult reports the best-supported mapped value for one key.
type LookupResult struct {
	// Found reports whether any mapping maps the key.
	Found bool
	// Key echoes the queried key.
	Key string
	// Value is the majority right value's representative surface form.
	Value string
	// Alternatives lists further recorded right surface forms (synonymous
	// mentions), majority winner excluded.
	Alternatives []string
	// MappingIndex is the position of the answering mapping, -1 if none.
	MappingIndex int
	// MappingID, Support, Tables and Domains are provenance of the
	// answering mapping.
	MappingID int
	Support   int
	Tables    int
	Domains   int
}

// lookupOne answers a single-key containment query: among all mappings
// whose left column contains the key, the one with the most contributing
// domains (the paper's popularity signal — LookupLeft's order) supplies
// the value.
func lookupOne(ix lookupIndex, key string) LookupResult {
	res := LookupResult{Key: key, MappingIndex: -1}
	hits := ix.LookupLeft([]string{key}, 1)
	if len(hits) == 0 {
		return res
	}
	m := hits[0].Mapping
	val, ok := m.Lookup(key)
	if !ok {
		return res
	}
	res = LookupResult{
		Found:        true,
		Key:          key,
		Value:        val,
		MappingIndex: hits[0].Index,
		MappingID:    m.ID,
		Support:      m.SupportOf(table.Pair{L: key, R: val}),
		Tables:       m.NumTables(),
		Domains:      m.NumDomains(),
	}
	if all := m.LookupAll(key); len(all) > 1 {
		res.Alternatives = all[1:]
	}
	return res
}
