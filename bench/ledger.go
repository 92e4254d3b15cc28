package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mapsynth/internal/apps"
	"mapsynth/internal/cluster"
	"mapsynth/internal/ingest"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/qos"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// The traced pass is one ledger of the whole system, the same whichever
// workload it is asked under: the build side from instrumented Engine.Run
// calls, the serving side from the same seeded queries timed at successive
// public boundaries (a layer's self time is its rung's median minus the rung
// below), the ingest side from direct calls, and a short live phase against
// a cmd/serve subprocess for the counters only a running server has.

// runLedger makes the traced pass and writes its spans to
// .bench_build/spans.ndjson.
func (e *env) runLedger(ctx context.Context, workload string) (rep *report, err error) {
	rep = newReport(workload, true)
	tr := newTracer()
	defer func() {
		if werr := tr.writeFile(filepath.Join(e.root, ".bench_build", "spans.ndjson")); err == nil {
			err = werr
		}
	}()
	art, err := e.ledgerBuild(ctx, tr, rep)
	if err != nil {
		return nil, err
	}
	if err := ledgerSnapshot(tr, rep, art); err != nil {
		return nil, err
	}
	// One in-process server (no lookup cache) for the handler rung, the
	// socket rungs and the activation timing.
	srv, err := serve.New(serve.Options{SnapshotPath: art.path, CacheSize: 0})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// One oracle, keyspace and set of expected lookups for the rungs and
	// the live phases.
	orc, err := openOracle(art.path)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	ks := newKeyspace(e.seed, art.maps)
	want, err := orc.lookups(ctx, ks)
	if err != nil {
		return nil, err
	}
	if err := e.ledgerRungs(ctx, tr, rep, art, srv, orc, ks, want); err != nil {
		return nil, err
	}
	ledgerQoS(rep)
	if err := e.ledgerIngest(ctx, tr, rep, srv); err != nil {
		return nil, err
	}
	if err := e.ledgerLive(ctx, rep, art, ks, want); err != nil {
		return nil, err
	}
	return rep, nil
}

// ledgerBuild times Engine.Run plain and instrumented in alternation. The
// instrumented runs record one child span per stage under the Run span;
// pipeline self time is Run minus the stages, and the difference between
// the fastest run of each kind is the tracing overhead.
func (e *env) ledgerBuild(ctx context.Context, tr *tracer, rep *report) (*artifact, error) {
	art := &artifact{path: e.path("ledger.snap")}
	d := tr.timed("corpusgen.GenerateWeb", 0, -1, func() { art.corpus = generate(e.sz.scale) })
	rep.set("corpusgen.generate_s", d.Seconds())
	tables := art.corpus.Tables

	plain, traced := pipeline.New(pipeline.DefaultConfig()), pipeline.New(pipeline.DefaultConfig())
	if _, err := plain.Run(ctx, tables); err != nil { // warm-up
		return nil, err
	}
	var plainS, tracedS, selfS []float64
	stages := make(map[string][]float64)
	var res *pipeline.Result
	for i := 0; i < e.sz.buildPairs; i++ {
		t0 := time.Now()
		if _, err := plain.Run(ctx, tables); err != nil {
			return nil, err
		}
		plainS = append(plainS, time.Since(t0).Seconds())

		run := tr.begin("pipeline.Engine.Run", 0, i)
		stage := 0
		traced.SetInstrumentation(pipeline.Instrumentation{
			OnStageStart: func(name string, _ int) { stage = tr.begin("pipeline.stage."+name, run, i) },
			OnStageEnd: func(st pipeline.StageStats) {
				stages[st.Name] = append(stages[st.Name], tr.end(stage).Seconds())
			},
		})
		var err error
		if res, err = traced.Run(ctx, tables); err != nil {
			return nil, err
		}
		tracedS = append(tracedS, tr.end(run).Seconds())
		selfS = append(selfS, tr.selfTime(run).Seconds())
	}
	for stage, metric := range map[string]string{
		"index": "stats.index_s", "extract": "extract.stage_s", "graph": "compat.graph_s",
		"partition": "synthesis.partition_s", "resolve": "conflict.resolve_s",
	} {
		rep.check(len(stages[stage]) == e.sz.buildPairs, "stage %q reported %d spans in %d runs", stage, len(stages[stage]), e.sz.buildPairs)
		rep.set(metric, medianFloat(stages[stage]))
	}
	runS, self := medianFloat(tracedS), medianFloat(selfS)
	rep.set("pipeline.run_s", runS)
	rep.set("pipeline.self_s", self)
	// Interference only ever adds time, so the fastest run of each kind is
	// the fairest pair to difference.
	rep.set("trace.overhead_share", (slices.Min(tracedS)-slices.Min(plainS))/slices.Min(plainS))
	rep.check(self <= 0.05*runS, "stage spans cover %.1f%% of Engine.Run, want at least 95%%", 100*(1-self/runS))

	art.maps, art.pairs = res.Mappings, countPairs(res.Mappings)
	rep.set("extract.candidates", float64(res.Candidates))
	rep.set("compat.edges", float64(res.Edges))
	rep.set("graph.components", float64(res.Components))
	rep.set("synthesis.partitions", float64(res.Partitions))
	rep.set("conflict.tables_removed", float64(res.TablesRemoved))
	rep.set("pipeline.mappings", float64(len(res.Mappings)))
	rep.set("pipeline.pairs", float64(art.pairs))
	return art, nil
}

// ledgerSnapshot times the artifact's write and the three ways it is read.
func ledgerSnapshot(tr *tracer, rep *report, art *artifact) error {
	var err error
	d := tr.timed("snapshot.WriteFileV2", 0, -1, func() { err = snapshot.WriteFileV2(art.path, art.maps) })
	if err != nil {
		return err
	}
	rep.set("snapshot.write_v2_s", d.Seconds())
	data, err := os.ReadFile(art.path)
	if err != nil {
		return err
	}
	art.bytes = int64(len(data))
	rep.set("snapshot.bytes", float64(len(data)))

	const reads = 20
	var openNs, verifyNs, loadNs []int64
	for i := 0; i < reads; i++ {
		var h *snapshot.Handle
		openNs = append(openNs, int64(tr.timed("snapshot.Open", 0, i, func() { h, err = snapshot.Open(art.path) })))
		if err != nil {
			return err
		}
		if i < 3 {
			verifyNs = append(verifyNs, int64(tr.timed("snapshot.Handle.Verify", 0, i, func() { err = h.Verify() })))
			rep.check(err == nil, "snapshot Verify: %v", err)
		}
		h.Close()
		var ld snapshot.Loaded
		loadNs = append(loadNs, int64(tr.timed("snapshot.LoadBytes", 0, i, func() { ld, err = snapshot.LoadBytes(data) })))
		if err != nil {
			return err
		}
		ld.Handle.Close()
	}
	rep.set("snapshot.open_us", float64(medianInt(openNs))/1e3)
	rep.set("snapshot.verify_ms", float64(medianInt(verifyNs))/1e6)
	rep.set("snapshot.load_bytes_us", float64(medianInt(loadNs))/1e3)
	return nil
}

// nested reports whether a self time is consistent with a nested ladder. A
// layer that adds less than the run-to-run noise of its rung can read
// slightly negative; more than slack of the rung below zero (a twentieth at
// full size) means the rungs are not nested.
func nested(self, rung, slack float64) bool { return self >= -slack*rung }

// ladder times, for every query i in [0, n), each rung's call(i) inside a
// span, and returns each rung's median in nanoseconds. The rungs of one
// query run back to back, so a drift in the machine's speed falls on all of
// them alike; which rung goes first rotates with i, so the warm caches a
// query's earlier calls leave behind favour no rung.
func ladder(tr *tracer, n int, names []string, calls []func(i int)) []float64 {
	ns := make([][]int64, len(calls))
	for i := 0; i < n; i++ {
		for k := range calls {
			r := (i + k) % len(calls)
			ns[r] = append(ns[r], int64(tr.timed(names[r], 0, i, func() { calls[r](i) })))
		}
	}
	medians := make([]float64, len(calls))
	for r := range medians {
		medians[r] = float64(medianInt(ns[r]))
	}
	return medians
}

// allocsPer returns heap allocations and bytes per call, from
// runtime.MemStats deltas over calls calls cycling through n inputs.
func allocsPer(calls, n int, call func(i int)) (allocs, bytes float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < calls; k++ {
		call(k % n)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls)
}

// listen serves h on a fresh loopback port and returns its URL and a
// function that stops the server.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// ledgerRungs times the same queries at successive public boundaries:
// index -> apps.Session -> serve handler (recorder, no socket) -> pkg/client
// over a loopback socket -> the same through a coordinator with one
// full-replica peer.
func (e *env) ledgerRungs(ctx context.Context, tr *tracer, rep *report, art *artifact, srv *serve.Server,
	orc *oracle, ks keyspace, wantLookup map[string]lookupWant) error {
	ix, sess := orc.ix, orc.sess
	handler := srv.Handler()
	nodeURL, stopNode, err := listen(handler)
	if err != nil {
		return err
	}
	defer stopNode()
	topo, err := cluster.NewTopology([]cluster.Peer{{Name: "node", Addr: nodeURL}}, 0)
	if err != nil {
		return err
	}
	co, err := cluster.New(topo, cluster.Options{})
	if err != nil {
		return err
	}
	co.ProbeOnce(ctx)
	coURL, stopCo, err := listen(co.Handler())
	if err != nil {
		return err
	}
	defer stopCo()
	direct, viaCo := oneConn(nodeURL), oneConn(coURL)

	stream := newPointStream(e.seed, 0, ks)
	keys := make([]string, e.sz.ledgerN)
	for i := range keys {
		keys[i] = stream.next()
	}
	absent := ks.absent[:min(len(ks.absent), e.sz.ledgerN/4)]
	qp := newQueryPool(e.seed, art.maps, e.sz.ledgerCol)
	want, err := orc.answers(ctx, qp)
	if err != nil {
		return err
	}

	// The lookup ladder.
	indexLookup := func(i int) { ix.LookupLeft(keys[i:i+1], 1) }
	appsLookup := func(i int) { _, _ = sess.Lookup(ctx, []apps.LookupQuery{{Key: keys[i]}}) }
	serveLookup := func(i int) {
		req := httptest.NewRequest(http.MethodGet, "/v1/lookup?key="+url.QueryEscape(keys[i]), nil)
		handler.ServeHTTP(httptest.NewRecorder(), req)
	}
	gotDirect, gotViaCo := make([]*client.LookupResponse, len(keys)), make([]*client.LookupResponse, len(keys))
	var callErr error
	clientLookup := func(c *client.Client, got []*client.LookupResponse) func(int) {
		return func(i int) {
			var err error
			if got[i], err = c.Lookup(ctx, keys[i]); err != nil {
				callErr = err
			}
		}
	}
	lookupCalls := []func(int){indexLookup, appsLookup, serveLookup, clientLookup(direct, gotDirect), clientLookup(viaCo, gotViaCo)}
	// Mappings materialize lazily on first touch; pay that before timing.
	n := len(keys)
	for i := 0; i < n; i++ {
		appsLookup(i)
	}
	lookup := ladder(tr, n, []string{"index.MappingIndex.LookupLeft", "apps.Session.Lookup", "serve.Handler GET /v1/lookup",
		"client.Client.Lookup", "client.Client.Lookup via cluster.Coordinator"}, lookupCalls)
	if callErr != nil {
		return fmt.Errorf("lookup over a socket: %w", callErr)
	}
	for i, key := range keys {
		w := wantLookup[key]
		rep.check(sameLookup(gotDirect[i], w), "lookup %q over the socket: got %+v, want %+v", key, gotDirect[i], w)
		rep.check(sameLookup(gotViaCo[i], w), "lookup %q through the coordinator: got %+v, want %+v", key, gotViaCo[i], w)
	}
	self := selfTimes(lookup)
	for i, name := range []string{"index.lookup_p50_ns", "apps.lookup_self_p50_ns", "serve.lookup_self_p50_ns",
		"client.lookup_self_p50_ns", "cluster.proxy_self_p50_ns"} {
		rep.set(name, self[i])
		rep.check(nested(self[i], lookup[i], e.sz.nestSlack), "%s is %.0f ns under a rung of %.0f ns: the lookup ladder is not nested", name, self[i], lookup[i])
	}
	rep.set("index.absent_p50_ns", ladder(tr, len(absent), []string{"index.MappingIndex.LookupLeft absent"},
		[]func(int){func(i int) { ix.LookupLeft(absent[i:i+1], 1) }})[0])

	// Allocations per call at each rung, reported as what the layer adds
	// to the rung below. The socket rungs run client and server in this
	// process, so their share holds both ends and net/http.
	var allocs []float64
	var indexBytes float64
	for i, call := range lookupCalls {
		calls := e.sz.allocCalls
		if i >= 3 {
			calls = n
		}
		a, b := allocsPer(calls, n, call)
		if i == 0 {
			indexBytes = b
		}
		allocs = append(allocs, a)
	}
	if callErr != nil {
		return callErr
	}
	added := selfTimes(allocs)
	for i, name := range []string{"index.lookup_allocs", "apps.lookup_allocs", "serve.lookup_allocs",
		"client.lookup_allocs", "cluster.proxy_allocs"} {
		rep.set(name, added[i])
	}
	rep.set("index.lookup_bytes", indexBytes)

	// The column ladder (auto-fill), and the index calls under the other
	// two applications.
	m := len(qp.fill)
	fillQuery := func(i int) apps.AutoFillQuery {
		q := qp.fill[i]
		return apps.AutoFillQuery{Column: q.Column, MinCoverage: q.MinCoverage,
			Examples: []apps.Example{{Left: q.Examples[0].Left, Right: q.Examples[0].Right}}}
	}
	bodies := make([][]byte, m)
	for i := range bodies {
		if bodies[i], err = json.Marshal(qp.fill[i]); err != nil {
			return err
		}
	}
	indexColumn := func(i int) { ix.LookupLeft(qp.fill[i].Column, 0.8) }
	appsFill := func(i int) { _, _ = sess.AutoFill(ctx, []apps.AutoFillQuery{fillQuery(i)}) }
	serveFill := func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/autofill", bytes.NewReader(bodies[i]))
		handler.ServeHTTP(httptest.NewRecorder(), req)
	}
	fills := make([]*client.AutoFillResponse, m)
	clientFill := func(i int) {
		var err error
		if fills[i], err = direct.AutoFill(ctx, qp.fill[i]); err != nil {
			callErr = err
		}
	}
	for i := 0; i < m; i++ {
		appsFill(i)
	}
	columnRungs := ladder(tr, m, []string{"index.MappingIndex.LookupLeft column", "apps.Session.AutoFill",
		"serve.Handler POST /v1/autofill", "client.Client.AutoFill"}, []func(int){indexColumn, appsFill, serveFill, clientFill})
	column := selfTimes(columnRungs)
	if callErr != nil {
		return fmt.Errorf("autofill over the socket: %w", callErr)
	}
	for i := range fills {
		rep.check(sameFill(*fills[i], want.fill[i]), "autofill %d over the socket: got %+v, want %+v", i, fills[i], want.fill[i])
	}
	for i, name := range []string{"index.column_p50_ns", "apps.autofill_self_p50_ns", "serve.autofill_self_p50_ns", "client.autofill_self_p50_ns"} {
		rep.set(name, column[i])
		rep.check(nested(column[i], columnRungs[i], e.sz.nestSlack), "%s is %.0f ns under a rung of %.0f ns: the column ladder is not nested", name, column[i], columnRungs[i])
	}
	var fillAllocs []float64
	for _, call := range []func(int){indexColumn, appsFill, serveFill} {
		a, _ := allocsPer(2*m, m, call)
		fillAllocs = append(fillAllocs, a)
	}
	fillAdded := selfTimes(fillAllocs)
	rep.set("index.column_allocs", fillAdded[0])
	rep.set("apps.autofill_allocs", fillAdded[1])
	rep.set("serve.autofill_allocs", fillAdded[2])

	other := ladder(tr, m, []string{"index.MappingIndex.MixedColumnHits", "apps.Session.AutoCorrect",
		"index.MappingIndex.LookupLeft keys_a", "apps.Session.AutoJoin"}, []func(int){
		func(i int) { ix.MixedColumnHits(qp.correct[i].Column, 2, 0.8) },
		func(i int) {
			_, _ = sess.AutoCorrect(ctx, []apps.AutoCorrectQuery{{Column: qp.correct[i].Column, MinEach: 2, MinCoverage: 0.8}})
		},
		func(i int) { ix.LookupLeft(qp.join[i].KeysA, 0.8) },
		func(i int) {
			_, _ = sess.AutoJoin(ctx, []apps.AutoJoinQuery{{KeysA: qp.join[i].KeysA, KeysB: qp.join[i].KeysB, MinCoverage: 0.8}})
		},
	})
	mixedHits, correct, joinHits, join := other[0], other[1], other[2], other[3]
	rep.set("index.mixed_hits_p50_ns", mixedHits)
	rep.set("apps.autocorrect_self_p50_ns", correct-mixedHits)
	rep.set("apps.autojoin_self_p50_ns", join-joinHits)
	rep.notef("lookup ladder medians (ns): %.0f; column ladder self (ns): %.0f; n=%d and %d", lookup, column, n, m)
	return nil
}

// ledgerQoS times an uncontended fair-queue slot: what every interactive
// request pays for admission.
func ledgerQoS(rep *report) {
	const calls = 200000
	fq := qos.NewFairQueue(256)
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		if fq.Acquire(ctx, "bench", 1, qos.Interactive) == nil {
			fq.Release(qos.Interactive)
		}
	}
	rep.set("qos.acquire_release_ns", float64(time.Since(t0).Nanoseconds())/calls)
}

// ledgerIngest makes the calls a publish is made of, directly: append to
// the durable log, re-synthesize incrementally, encode, load, activate.
func (e *env) ledgerIngest(ctx context.Context, tr *tracer, rep *report, srv *serve.Server) error {
	batches := int(e.sz.seconds / e.sz.ingestGap)
	held := heldOut(batches * e.sz.ingestSize)
	log, err := ingest.OpenLog(e.fresh("ledger.mlog"))
	if err != nil {
		return err
	}
	defer log.Close()
	eng, inc := pipeline.New(pipeline.DefaultConfig()), pipeline.NewIncrementalState()
	var tables []*table.Table
	var appendNs, incNs []int64
	var res *pipeline.Result
	hits, misses := 0, 0
	for b := 0; b*e.sz.ingestSize < len(held); b++ {
		var rows []ingest.TableRow
		for _, t := range held[b*e.sz.ingestSize : min((b+1)*e.sz.ingestSize, len(held))] {
			row := ingest.TableRow{Domain: t.Domain, Title: t.Title}
			for _, c := range t.Columns {
				row.Columns = append(row.Columns, ingest.ColumnRow{Name: c.Name, Values: c.Values})
			}
			rows = append(rows, row)
		}
		appendNs = append(appendNs, int64(tr.timed("ingest.Log.Append", 0, b, func() { _, err = log.Append(rows) })))
		if err != nil {
			return err
		}
		for i := range rows {
			tables = append(tables, rows[i].Table(len(tables)))
		}
		incNs = append(incNs, int64(tr.timed("pipeline.Engine.RunIncremental", 0, b, func() { res, err = eng.RunIncremental(ctx, tables, inc) })))
		if err != nil {
			return err
		}
		h, m, _ := inc.CacheStats()
		hits, misses = hits+h, misses+m
	}
	rep.set("ingest.log_append_p50_us", float64(medianInt(appendNs))/1e3)
	rep.set("pipeline.incremental_p50_ms", float64(medianInt(incNs))/1e6)
	rep.set("pipeline.incremental_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))

	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, res.Mappings); err != nil {
		return err
	}
	var activateNs []int64
	for i := 0; i < 10; i++ {
		activateNs = append(activateNs, int64(tr.timed("serve.Server.LoadCorpusSnapshot", 0, i, func() {
			_, err = srv.LoadCorpusSnapshot("ledger", buf.Bytes())
		})))
		if err != nil {
			return err
		}
	}
	rep.set("serve.activate_us", float64(medianInt(activateNs))/1e3)
	rep.notef("ingest side: %d tables in %d appends; the last incremental run gave %d mappings, %d snapshot bytes", len(tables), len(appendNs), len(res.Mappings), buf.Len())
	return nil
}

// ledgerLive runs two short phases against a cmd/serve subprocess: paced
// lookups on a quiet server (the open-loop numbers, informational: they
// measure this machine's scheduler as much as the server), then the same
// beside ingestion, and reads the counters only a running server has.
func (e *env) ledgerLive(ctx context.Context, rep *report, art *artifact, ks keyspace, want map[string]lookupWant) error {
	srv, err := startServer(ctx, e.serveBin, art.path, e.fresh("ledger-ingest"))
	if err != nil {
		return err
	}
	defer srv.stop()
	runtime.GC() // set-up garbage goes before the window, while this process is the load generator
	readers, phase := max(runtime.NumCPU()-1, 1), e.sz.seconds/3

	logs := readWhile(ctx, srv.url, e.seed, ks, want, false, readers, newSchedule(time.Now(), e.sz.readerRate),
		func() { sleepUntil(ctx, time.Now().Add(phase)) })
	lat, late := mergeReaders(logs, rep)
	open, openLate := summarize(lat), summarize(late)
	rep.set("gen.openloop_p50_us", float64(open.P50)/1e3)
	rep.set("gen.openloop_p99_us", float64(open.P99)/1e3)
	rep.set("gen.openloop_late_p99_us", float64(openLate.P99)/1e3)
	admin := oneConn(srv.url)
	st, err := admin.Stats(ctx)
	if err != nil {
		return err
	}
	hitRate, _ := st.Cache["hit_rate"].(float64)
	rep.set("serve.cache_hit_ratio", hitRate)

	posts := int(phase / e.sz.ingestGap)
	held := heldOut(posts * e.sz.ingestSize)
	ing := ingestLog{nextLSN: 1}
	start := time.Now()
	logs = readWhile(ctx, srv.url, e.seed+1, ks, want, true, readers, newSchedule(start, e.sz.readerRate), func() {
		ing.postEvery(ctx, admin, schedule{start: start, interval: e.sz.ingestGap}, posts, e.sz.ingestSize, held, rep)
	})
	_, late = mergeReaders(logs, rep)
	rep.set("gen.late_p99_us", float64(summarize(late).P99)/1e3)
	rep.set("ingest.first_ack_p50_ms", float64(medianInt(ing.firstAck))/1e6)
	info, err := admin.Corpus(client.DefaultCorpus).Get(ctx)
	if err != nil {
		return err
	}
	if info.Ingest == nil {
		return fmt.Errorf("corpus %q reports no ingest status after %d posts", client.DefaultCorpus, posts)
	}
	rep.set("ingest.synthesis_runs", float64(info.Ingest.Runs))
	if st, err = admin.Stats(ctx); err != nil {
		return err
	}
	throttled := int64(0)
	for _, t := range st.Tenants {
		throttled += t.Throttled
	}
	rep.set("serve.throttled", float64(throttled))
	rep.notef("live phases of %s: quiet open loop %s; beside %d posts, visible %s", phase, describe(open), posts, describe(summarize(ing.visible)))
	return ctx.Err()
}
