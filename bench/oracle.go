package main

import (
	"context"
	"fmt"
	"reflect"

	"mapsynth/internal/apps"
	"mapsynth/internal/index"
	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

// oracle answers queries in-process through apps.Session on the same
// snapshot file the server maps. An HTTP answer is correct when it carries
// the same result values (not the same wire bytes) as the oracle's.
type oracle struct {
	h    *snapshot.Handle
	ix   *index.MappingIndex
	sess *apps.Session
}

func openOracle(path string) (*oracle, error) {
	h, err := snapshot.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening snapshot for the oracle: %w", err)
	}
	ix := index.FromSource(h)
	return &oracle{h: h, ix: ix, sess: apps.NewSession(ix)}, nil
}

func (o *oracle) close() { o.h.Close() }

// lookupWant is the part of a lookup answer that is checked.
type lookupWant struct {
	found bool
	value string
}

func (o *oracle) lookup(ctx context.Context, key string) (lookupWant, error) {
	res, err := o.sess.Lookup(ctx, []apps.LookupQuery{{Key: key}})
	if err != nil {
		return lookupWant{}, err
	}
	return lookupWant{res[0].Found, res[0].Value}, nil
}

// lookups answers every key of the keyspace, and insists the keyspace is
// what it claims: present keys found, absent keys not.
func (o *oracle) lookups(ctx context.Context, ks keyspace) (map[string]lookupWant, error) {
	want := make(map[string]lookupWant, len(ks.all)+len(ks.absent))
	for _, k := range ks.all {
		w, err := o.lookup(ctx, k)
		if err != nil {
			return nil, err
		}
		if !w.found {
			return nil, fmt.Errorf("oracle: key %q comes from a served mapping but is not found", k)
		}
		want[k] = w
	}
	for _, k := range ks.absent {
		w, err := o.lookup(ctx, k)
		if err != nil {
			return nil, err
		}
		if w.found {
			return nil, fmt.Errorf("oracle: generated absent key %q is found", k)
		}
		want[k] = w
	}
	return want, nil
}

func sameLookup(got *client.LookupResponse, want lookupWant) bool {
	return got.Found == want.found && got.Value == want.value
}

// The conversions below mirror the server's response views: row order,
// mapping id taken from the answering mapping, absent lists left nil.

func (o *oracle) fillView(res apps.AutoFillResult, rows int) client.AutoFillCandidate {
	c := client.AutoFillCandidate{MappingIndex: res.MappingIndex}
	if res.MappingIndex >= 0 {
		c.MappingID = o.ix.Mapping(res.MappingIndex).ID
		for row := 0; row < rows; row++ {
			if v, ok := res.Filled[row]; ok {
				c.Filled = append(c.Filled, client.FilledCell{Row: row, Value: v})
			}
		}
	}
	return c
}

func (o *oracle) fill(ctx context.Context, req client.AutoFillRequest) (client.AutoFillResponse, error) {
	ex := make([]apps.Example, len(req.Examples))
	for i, e := range req.Examples {
		ex[i] = apps.Example{Left: e.Left, Right: e.Right}
	}
	res, err := o.sess.AutoFill(ctx, []apps.AutoFillQuery{{Column: req.Column, Examples: ex, MinCoverage: req.MinCoverage}})
	if err != nil {
		return client.AutoFillResponse{}, err
	}
	return client.AutoFillResponse{Found: res[0].MappingIndex >= 0, AutoFillCandidate: o.fillView(res[0], len(req.Column))}, nil
}

func (o *oracle) correct(ctx context.Context, req client.AutoCorrectRequest) (client.AutoCorrectResponse, error) {
	res, err := o.sess.AutoCorrect(ctx, []apps.AutoCorrectQuery{{Column: req.Column, MinEach: req.MinEach, MinCoverage: req.MinCoverage}})
	if err != nil {
		return client.AutoCorrectResponse{}, err
	}
	c := client.AutoCorrectCandidate{MappingIndex: res[0].MappingIndex}
	if res[0].MappingIndex >= 0 {
		c.MappingID = o.ix.Mapping(res[0].MappingIndex).ID
	}
	for _, cor := range res[0].Corrections {
		c.Corrections = append(c.Corrections, client.Correction{Row: cor.Row, Original: cor.Original, Suggested: cor.Suggested})
	}
	return client.AutoCorrectResponse{Found: res[0].MappingIndex >= 0, AutoCorrectCandidate: c}, nil
}

func (o *oracle) join(ctx context.Context, req client.AutoJoinRequest) (client.AutoJoinResponse, error) {
	res, err := o.sess.AutoJoin(ctx, []apps.AutoJoinQuery{{KeysA: req.KeysA, KeysB: req.KeysB, MinCoverage: req.MinCoverage}})
	if err != nil {
		return client.AutoJoinResponse{}, err
	}
	c := client.AutoJoinCandidate{MappingIndex: res[0].MappingIndex, Bridged: res[0].Bridged}
	if res[0].MappingIndex >= 0 {
		c.MappingID = o.ix.Mapping(res[0].MappingIndex).ID
		for _, row := range res[0].Rows {
			c.Rows = append(c.Rows, client.JoinedRow{LeftRow: row.LeftRow, RightRow: row.RightRow})
		}
	}
	return client.AutoJoinResponse{Found: res[0].MappingIndex >= 0, AutoJoinCandidate: c}, nil
}

// poolWant holds the oracle's answer to every query of a pool.
type poolWant struct {
	fill    []client.AutoFillResponse
	correct []client.AutoCorrectResponse
	join    []client.AutoJoinResponse
}

func (o *oracle) answers(ctx context.Context, qp queryPool) (poolWant, error) {
	var pw poolWant
	for i := range qp.fill {
		f, err := o.fill(ctx, qp.fill[i])
		if err != nil {
			return pw, err
		}
		c, err := o.correct(ctx, qp.correct[i])
		if err != nil {
			return pw, err
		}
		j, err := o.join(ctx, qp.join[i])
		if err != nil {
			return pw, err
		}
		pw.fill, pw.correct, pw.join = append(pw.fill, f), append(pw.correct, c), append(pw.join, j)
	}
	return pw, nil
}

// The same* helpers compare an HTTP answer with the oracle's, ignoring the
// transport metadata the SDK adds.

func sameFill(got client.AutoFillResponse, want client.AutoFillResponse) bool {
	got.ResponseMeta = client.ResponseMeta{}
	return reflect.DeepEqual(got, want)
}

func sameCorrect(got client.AutoCorrectResponse, want client.AutoCorrectResponse) bool {
	got.ResponseMeta = client.ResponseMeta{}
	return reflect.DeepEqual(got, want)
}

func sameJoin(got client.AutoJoinResponse, want client.AutoJoinResponse) bool {
	got.ResponseMeta = client.ResponseMeta{}
	return reflect.DeepEqual(got, want)
}
