// Auto-correction (Table 3 of the paper): a user column mixes full US state
// names with abbreviations; the synthesized (state → abbreviation) mapping
// detects the inconsistency and suggests corrections. The query goes through
// the v1 HTTP API via pkg/client.
//
// Run with: go run ./examples/autocorrect
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/pkg/client"
)

func main() {
	fmt.Println("generating web corpus and synthesizing mappings...")
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42})
	res, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), corpus.Tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	c, shutdown, err := serveMappings(res.Mappings)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer shutdown()
	fmt.Printf("serving %d mappings over the v1 API\n\n", len(res.Mappings))

	// The employee table of the paper's Table 3: the state column mixes
	// full names with abbreviations.
	employees := []struct{ name, state string }{
		{"Brent, Steven", "California"},
		{"Morris, Peggy", "Washington"},
		{"Raynal, David", "Oregon"},
		{"Crispin, Neal", "CA"},
		{"Wells, William", "WA"},
	}
	column := make([]string, len(employees))
	for i, e := range employees {
		column[i] = e.state
	}

	resp, err := c.AutoCorrect(context.Background(), client.AutoCorrectRequest{
		Column:  column,
		MinEach: 2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !resp.Found {
		fmt.Println("no mixed-representation mapping detected")
		return
	}
	fmt.Printf("detected inconsistent state column (mapping %d); suggested corrections:\n", resp.MappingID)
	for _, corr := range resp.Corrections {
		fmt.Printf("  row %d (%s): %q -> %q\n",
			corr.Row, employees[corr.Row].name, corr.Original, corr.Suggested)
	}
}

// serveMappings mounts the v1 API for the synthesized mappings on an
// ephemeral local port and returns an SDK client pointed at it.
func serveMappings(maps []*mapping.Mapping) (*client.Client, func(), error) {
	srv := serve.NewFromMappings(maps, serve.Options{CacheSize: 256})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return client.New("http://" + ln.Addr().String()), func() { hs.Close() }, nil
}
