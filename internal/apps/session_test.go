package apps

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mapsynth/internal/pool"
)

// sessionQueries builds a deterministic query set over the shared test
// index: hits, partial hits, misses, and mixed-representation columns.
func sessionQueries() ([]AutoFillQuery, []AutoCorrectQuery, []AutoJoinQuery, []LookupQuery) {
	fills := []AutoFillQuery{
		{Column: []string{"San Francisco", "Seattle", "Houston"},
			Examples: []Example{{Left: "San Francisco", Right: "California"}}, MinCoverage: 0.8},
		{Column: []string{"California", "Washington", "Texas"}, MinCoverage: 0.8},
		{Column: []string{"no", "such", "values"}, MinCoverage: 0.8},
		// Repeated column: exercises the dedup cache path.
		{Column: []string{"California", "Washington", "Texas"}, MinCoverage: 0.8},
	}
	corrects := []AutoCorrectQuery{
		{Column: []string{"California", "Washington", "Oregon", "CA", "WA"}, MinEach: 2, MinCoverage: 0.8},
		{Column: []string{"CA", "WA", "OR", "Texas"}, MinEach: 1, MinCoverage: 0.8},
		{Column: []string{"clean", "column"}, MinEach: 1, MinCoverage: 0.8},
	}
	joins := []AutoJoinQuery{
		{KeysA: []string{"California", "Washington", "Texas"}, KeysB: []string{"WA", "TX", "NV"}, MinCoverage: 0.8},
		{KeysA: []string{"San Francisco", "Seattle"}, KeysB: []string{"California", "Washington"}, MinCoverage: 0.8},
		{KeysA: []string{"nope"}, KeysB: []string{"nothing"}, MinCoverage: 0.8},
	}
	lookups := []LookupQuery{
		{Key: "California"}, {Key: "Seattle"}, {Key: "missing"},
	}
	return fills, corrects, joins, lookups
}

// TestSessionMatchesSequential is the golden equivalence test of the
// Session: a multi-query call — pooled, within-call or stream-wide lookup
// dedup — must answer every query byte-identically (JSON encoding) and structurally
// identically to the per-query function run sequentially.
func TestSessionMatchesSequential(t *testing.T) {
	ix := stateIndex()
	fills, corrects, joins, lookups := sessionQueries()
	ctx := context.Background()

	variants := []struct {
		name string
		sess *Session
	}{
		{"defaults", NewSession(ix)},
		{"stream", NewSession(ix).Stream()},
		{"pool-1", NewSession(ix, WithPool(pool.New(1)))},
		{"pool-4", NewSession(ix, WithPool(pool.New(4)))},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			gotF, err := v.sess.AutoFill(ctx, fills)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range fills {
				assertIdentical(t, fmt.Sprintf("autofill %d", i),
					gotF[i], autoFillOne(ix, q))
			}
			gotC, err := v.sess.AutoCorrect(ctx, corrects)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range corrects {
				assertIdentical(t, fmt.Sprintf("autocorrect %d", i),
					gotC[i], autoCorrectOne(ix, q))
			}
			gotJ, err := v.sess.AutoJoin(ctx, joins)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range joins {
				assertIdentical(t, fmt.Sprintf("autojoin %d", i),
					gotJ[i], autoJoinOne(ix, q))
			}
			gotL, err := v.sess.Lookup(ctx, lookups)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range lookups {
				assertIdentical(t, fmt.Sprintf("lookup %d", i), gotL[i], lookupOne(ix, q.Key))
			}
		})
	}
}

// assertIdentical requires got and want to agree structurally and in their
// JSON encoding.
func assertIdentical(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: session = %+v, sequential = %+v", what, got, want)
		return
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if string(gb) != string(wb) {
		t.Errorf("%s: JSON differs:\nsession:    %s\nsequential: %s", what, gb, wb)
	}
}

// TestSessionDefaults pins the WithDefaults contract: zero-valued query
// fields take the Session default, explicit values win over it.
func TestSessionDefaults(t *testing.T) {
	ix := stateIndex()
	sess := NewSession(ix, WithDefaults(Defaults{MinCoverage: 0.8, MinEach: 2}))
	ctx := context.Background()

	// Zero MinEach/MinCoverage inherit the defaults: the single-abbreviation
	// column fails the MinEach=2 bar exactly like the explicit call.
	res, err := sess.AutoCorrect(ctx, []AutoCorrectQuery{{Column: []string{"California", "Washington", "OR", "Texas"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := autoCorrectOne(ix, AutoCorrectQuery{Column: []string{"California", "Washington", "OR", "Texas"}, MinEach: 2, MinCoverage: 0.8}); !reflect.DeepEqual(res[0], want) {
		t.Errorf("defaulted = %+v, explicit = %+v", res[0], want)
	}
	// An explicit MinEach overrides the default and finds the fix.
	res, err = sess.AutoCorrect(ctx, []AutoCorrectQuery{{Column: []string{"California", "Washington", "OR", "Texas"}, MinEach: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Corrections) != 1 || res[0].Corrections[0].Suggested != "Oregon" {
		t.Errorf("explicit MinEach=1 result = %+v", res[0])
	}
}
