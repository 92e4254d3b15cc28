// Auto-fill (Table 4 of the paper): given a column of city names and a
// single example pair (San Francisco → California), the service finds the
// synthesized (city → state) mapping that agrees with the example and fills
// the remaining rows. The query goes through the v1 HTTP API via pkg/client,
// exactly as a spreadsheet frontend would issue it.
//
// Run with: go run ./examples/autofill
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

	cities := []string{"San Francisco", "Seattle", "Los Angeles", "Houston", "Denver"}
	resp, err := c.AutoFill(context.Background(), client.AutoFillRequest{
		Column:   cities,
		Examples: []client.Example{{Left: "San Francisco", Right: "California"}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !resp.Found {
		fmt.Println("no mapping matches the example")
		return
	}
	filled := make(map[int]string, len(resp.Filled))
	for _, cell := range resp.Filled {
		filled[cell.Row] = cell.Value
	}
	fmt.Printf("auto-filled states (mapping %d):\n", resp.MappingID)
	for i, city := range cities {
		state, ok := filled[i]
		if !ok {
			state = "(unknown)"
		}
		marker := ""
		if i == 0 {
			marker = "  (user example)"
		}
		fmt.Printf("  %-15s %s%s\n", city, state, marker)
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
