// Quickstart: synthesize mapping relationships from a handful of toy
// tables, serve them over the v1 HTTP API in-process, and query the service
// through pkg/client — the full offline-synthesis → online-serving loop in
// one program.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

func main() {
	// A miniature "web corpus": fragments of a country→ISO3 mapping spread
	// over several small tables from different sites, one of which uses a
	// synonym ("Korea, Republic of") and one of which carries an error.
	corpus := []*table.Table{
		tbl(0, "siteA.com",
			col("country", "United States", "Canada", "South Korea", "Japan"),
			col("code", "USA", "CAN", "KOR", "JPN")),
		tbl(1, "siteB.com",
			col("name", "Japan", "China", "Germany", "France"),
			col("code", "JPN", "CHN", "DEU", "FRA")),
		tbl(2, "siteC.com",
			col("country", "Korea, Republic of", "China", "France", "Canada"),
			col("iso", "KOR", "CHN", "FRA", "CAN")),
		tbl(3, "siteD.com",
			col("nation", "Germany", "United States", "South Korea", "China"),
			col("code", "DEU", "USA", "KOR", "CHN")),
		tbl(4, "siteE.com", // IOC codes: a *different* mapping for Germany
			col("country", "Germany", "Canada", "South Korea", "Japan"),
			col("code", "GER", "CAN", "KOR", "JPN")),
		tbl(5, "siteF.com",
			col("country", "Germany", "United States", "France", "China"),
			col("ioc", "GER", "USA", "FRA", "CHN")),
	}

	cfg := pipeline.DefaultConfig()
	cfg.Extract.CoherenceThreshold = -1 // toy corpus: skip statistics filter
	ctx := context.Background()
	result, err := pipeline.New(cfg).Run(ctx, corpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("synthesized %d mappings from %d tables\n\n", len(result.Mappings), len(corpus))

	// Serve the synthesized mappings on a local listener and talk to the
	// service the way any consumer would: through the Go SDK.
	c, shutdown, err := serveMappings(result.Mappings)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer shutdown()

	h, err := c.Healthz(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	def := h.Corpora[client.DefaultCorpus]
	fmt.Printf("service up: %d mappings, %d pairs\n\n", def.Mappings, def.Pairs)

	// Lookup uses any surface form, including synonyms merged from other
	// tables.
	for _, q := range []string{"South Korea", "Korea, Republic of", "Germany"} {
		resp, err := c.Lookup(ctx, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !resp.Found {
			fmt.Printf("lookup %-22q -> (no mapping)\n", q)
			continue
		}
		fmt.Printf("lookup %-22q -> %-4s (mapping %d, %d domains agree)\n",
			q, resp.Value, resp.MappingID, resp.Domains)
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

func tbl(id int, domain string, cols ...table.Column) *table.Table {
	return &table.Table{ID: id, Domain: domain, Columns: cols}
}

func col(name string, values ...string) table.Column {
	return table.Column{Name: name, Values: values}
}
