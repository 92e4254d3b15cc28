// Auto-join (Table 5 of the paper): one table keys stocks by ticker, the
// other by company name. The synthesized (ticker → company) mapping bridges
// them in a three-way join — no manual mapping required. The query goes
// through the v1 HTTP API via pkg/client.
//
// Run with: go run ./examples/autojoin
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

	// Left table: stocks by market capitalization (keyed by ticker).
	stocks := []struct {
		ticker string
		cap    string
	}{
		{"GE", "255.88B"}, {"WMT", "212.13B"}, {"MSFT", "380.15B"},
		{"ORCL", "255.88B"}, {"UPS", "94.27B"},
	}
	// Right table: political contributions (keyed by company name).
	contributions := []struct {
		company string
		total   string
	}{
		{"General Electric", "$59,456,031"}, {"Walmart", "$47,497,295"},
		{"Oracle", "$34,216,308"}, {"Microsoft Corp", "$33,910,357"},
		{"AT&T Inc.", "$33,752,009"},
	}
	keysA := make([]string, len(stocks))
	for i, s := range stocks {
		keysA[i] = s.ticker
	}
	keysB := make([]string, len(contributions))
	for i, c := range contributions {
		keysB[i] = c.company
	}

	resp, err := c.AutoJoin(context.Background(), client.AutoJoinRequest{
		KeysA:       keysA,
		KeysB:       keysB,
		MinCoverage: 0.6,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !resp.Found {
		fmt.Println("no bridging mapping found")
		return
	}
	fmt.Printf("joined %d of %d rows via mapping %d:\n",
		resp.Bridged, len(stocks), resp.MappingID)
	for _, row := range resp.Rows {
		s, c := stocks[row.LeftRow], contributions[row.RightRow]
		fmt.Printf("  %-5s %-8s <-> %-18s %s\n", s.ticker, s.cap, c.company, c.total)
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
