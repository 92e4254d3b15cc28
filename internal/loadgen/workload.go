package loadgen

import (
	"errors"
	"fmt"
	"math/rand"

	"mapsynth/internal/mapping"
	"mapsynth/pkg/client"
)

// Workload is the query material for a run, derived from the same mapping
// set the server is serving (cmd/loadgen reads the snapshot file) so
// generated lookups genuinely hit the index instead of measuring the
// miss path only. It produces the SDK's typed requests directly — the
// generator speaks pkg/client end to end, never raw JSON.
type Workload struct {
	cols []mappingCols
}

// mappingCols is one mapping's value material: parallel left/right columns.
type mappingCols struct {
	lefts  []string
	rights []string
}

// maxColumnValues caps generated column lengths so one giant mapping does
// not dominate request sizes.
const maxColumnValues = 16

// NewWorkload derives query material from a mapping set, keeping mappings
// with at least four value pairs (enough to build a meaningful column).
func NewWorkload(maps []*mapping.Mapping) (*Workload, error) {
	wl := &Workload{}
	for _, m := range maps {
		if len(m.Pairs) < 4 {
			continue
		}
		n := len(m.Pairs)
		if n > maxColumnValues {
			n = maxColumnValues
		}
		mc := mappingCols{
			lefts:  make([]string, 0, n),
			rights: make([]string, 0, n),
		}
		for _, p := range m.Pairs[:n] {
			mc.lefts = append(mc.lefts, p.L)
			mc.rights = append(mc.rights, p.R)
		}
		wl.cols = append(wl.cols, mc)
	}
	if len(wl.cols) == 0 {
		return nil, errors.New("loadgen: no mapping has enough pairs to query")
	}
	return wl, nil
}

// Mappings reports how many mappings contribute query material.
func (wl *Workload) Mappings() int { return len(wl.cols) }

func (wl *Workload) random(rng *rand.Rand) mappingCols {
	return wl.cols[rng.Intn(len(wl.cols))]
}

// lookupKey returns a left value of a random mapping (unescaped; the SDK
// owns URL encoding).
func (wl *Workload) lookupKey(rng *rand.Rand) string {
	mc := wl.random(rng)
	return mc.lefts[rng.Intn(len(mc.lefts))]
}

// autoFillReq builds an auto-fill request: a left column of one mapping
// with that mapping's own first pair as the demonstration example.
func (wl *Workload) autoFillReq(rng *rand.Rand) client.AutoFillRequest {
	mc := wl.random(rng)
	return client.AutoFillRequest{
		Column:      mc.lefts,
		Examples:    []client.Example{{Left: mc.lefts[0], Right: mc.rights[0]}},
		MinCoverage: 0.8,
	}
}

// autoCorrectReq builds an auto-correct request: a column that is mostly
// left values with a minority of right values mixed in — the
// inconsistent-representation shape the app detects.
func (wl *Workload) autoCorrectReq(rng *rand.Rand) client.AutoCorrectRequest {
	mc := wl.random(rng)
	split := len(mc.lefts) / 2
	if minority := len(mc.lefts) - split; minority > split {
		split = minority
	}
	column := append(append([]string{}, mc.lefts[:split]...), mc.rights[split:]...)
	return client.AutoCorrectRequest{
		Column:      column,
		MinEach:     2,
		MinCoverage: 0.8,
	}
}

// ingestTable builds one table for the ingest op: a random mapping's value
// pairs under a generator-owned domain. The material re-states pairs the
// corpus already supports, so continuous ingestion reinforces mappings
// rather than eroding synthesis quality mid-run.
func (wl *Workload) ingestTable(rng *rand.Rand) client.IngestTable {
	mc := wl.random(rng)
	return client.IngestTable{
		Domain: fmt.Sprintf("loadgen%d.example", rng.Intn(1<<20)),
		Title:  "loadgen ingest",
		Columns: []client.IngestColumn{
			{Name: "l", Values: mc.lefts},
			{Name: "r", Values: mc.rights},
		},
	}
}

// autoJoinReq builds an auto-join request joining a mapping's left column
// against its right column — the representation bridge the app resolves.
func (wl *Workload) autoJoinReq(rng *rand.Rand) client.AutoJoinRequest {
	mc := wl.random(rng)
	return client.AutoJoinRequest{
		KeysA:       mc.lefts,
		KeysB:       mc.rights,
		MinCoverage: 0.8,
	}
}
