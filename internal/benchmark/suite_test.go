package benchmark

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestRunSuite runs the whole suite against a shrunken corpus and checks
// every section of the result is populated — the schema BENCH_N.json files
// are written in.
func TestRunSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	res, err := RunSuite(context.Background(), SuiteOptions{
		Scale:       0.15,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		BatchSize:   4,
		Dir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Corpus.Tables == 0 {
		t.Error("no corpus tables")
	}
	if res.Synthesis.Mappings == 0 || res.Synthesis.DurationSeconds <= 0 {
		t.Errorf("synthesis = %+v", res.Synthesis)
	}
	if len(res.Synthesis.Stages) != 5 {
		t.Errorf("stages = %+v", res.Synthesis.Stages)
	}
	if res.Snapshot.V2Bytes == 0 || res.Snapshot.V2WriteSeconds <= 0 {
		t.Errorf("snapshot = %+v", res.Snapshot)
	}
	if len(res.Activation) != 1 || res.Activation[0].Format != "v2" || res.Activation[0].OpenSeconds <= 0 {
		t.Errorf("activation = %+v", res.Activation)
	}
	if res.Lookup.NsPerOp <= 0 || res.Lookup.Iterations == 0 {
		t.Errorf("lookup bench = %+v", res.Lookup)
	}
	if res.Serving == nil || res.Serving.Requests == 0 {
		t.Fatalf("serving = %+v", res.Serving)
	}
	if res.Serving.Errors != 0 {
		t.Errorf("serving errors = %d: %+v", res.Serving.Errors, res.Serving.ErrorSamples)
	}
	if res.Isolation == nil || !res.Isolation.Passed {
		t.Errorf("isolation = %+v", res.Isolation)
	}
	if res.Cluster == nil || !res.Cluster.Passed {
		t.Errorf("cluster = %+v", res.Cluster)
	}
	if res.Ingest == nil || !res.Ingest.Converged || res.Ingest.LookupCount == 0 {
		t.Errorf("ingest = %+v", res.Ingest)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SuiteResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Synthesis.Mappings != res.Synthesis.Mappings {
		t.Error("result does not round-trip through JSON")
	}
}
