package pipeline

import (
	"context"
	"testing"

	"mapsynth/internal/compat"
	"mapsynth/internal/extract"
	"mapsynth/internal/pool"
	"mapsynth/internal/stats"
	"mapsynth/internal/synthesis"
)

// TestGreedyMergesUnconstrainedComponents is the first rung of a per-
// component certificate of greedy synthesis. The compatibility graph holds
// only edges inside positive components, so each of its components is
// connected by w+ > 0 edges. Where no internal edge has w- < τ nothing can
// stop a merge: greedy must return the whole component as one partition,
// and that partition is optimal. The same must hold for every component
// once τ is below any w-; a component held together by a negative edge
// fails that.
func TestGreedyMergesUnconstrainedComponents(t *testing.T) {
	cfg := DefaultConfig()
	tables := webCorpus(42, 1)().Tables
	bins, _ := extract.New(stats.BuildIndex(tables), cfg.Extract).ExtractAll(tables)
	ctx := context.Background()
	p := pool.New(0)
	cands, err := compat.PrecomputeParallel(ctx, bins, p)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := compat.BuildGraphCtx(ctx, cands, cfg.Compat, p)
	if err != nil {
		t.Fatal(err)
	}
	comps := g.Decompose()
	free := 0          // components of ≥ 2 vertices with no internal w- < τ
	const unbound = -2 // below every w-, which lies in [-1, 0]
	for _, c := range comps {
		if len(c.Vertices) < 2 {
			continue
		}
		if parts, _ := synthesis.GreedyComponent(ctx, c, unbound); len(parts) != 1 {
			t.Errorf("component at vertex %d (%d vertices): %d partitions with no constraint binding, want 1: not positively connected",
				c.Vertices[0], len(c.Vertices), len(parts))
		}
		constrained := false
		for _, e := range c.Sub.Edges() {
			constrained = constrained || e.Neg < cfg.Tau
		}
		if constrained {
			continue
		}
		free++
		parts, err := synthesis.GreedyComponent(ctx, c, cfg.Tau)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 1 {
			t.Errorf("component at vertex %d (%d vertices, no w- < τ): greedy returned %d partitions, want 1",
				c.Vertices[0], len(c.Vertices), len(parts))
		}
	}
	if free == 0 {
		t.Fatal("no unconstrained component of two or more vertices: the property went untested")
	}
	t.Logf("%d components, %d of ≥ 2 vertices without an internal w- < τ edge", len(comps), free)
}
