package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mapsynth/internal/table"
	"mapsynth/pkg/client"
)

// msOf converts nanosecond samples to milliseconds, for detail lines.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// wireTable converts a generated table into the ingest endpoint's form.
func wireTable(t *table.Table) client.IngestTable {
	it := client.IngestTable{Domain: t.Domain, Title: t.Title}
	for _, c := range t.Columns {
		it.Columns = append(it.Columns, client.IngestColumn{Name: c.Name, Values: c.Values})
	}
	return it
}

// readerLog is what one paced reader measured.
type readerLog struct {
	lat, late    []int64 // per lookup: latency from the due time, send lateness; ns
	done         []time.Time
	failed       int
	firstFailure string
}

// pacedReader issues lookups on a fixed schedule until stop closes. Latency
// is taken from each lookup's due time. With presence set, a key's answer
// is checked for found/not-found only: ingestion may legitimately change
// which value wins. Without it the full answer is checked.
func pacedReader(ctx context.Context, c *client.Client, stream *pointStream, want map[string]lookupWant,
	presenceOnly bool, sched schedule, stop <-chan struct{}) readerLog {
	var log readerLog
	for i := 0; ; i++ {
		select {
		case <-stop:
			return log
		case <-ctx.Done():
			return log
		default:
		}
		due := sched.wait(i)
		key := stream.next()
		sent := time.Now()
		got, err := c.Lookup(ctx, key)
		done := time.Now()
		p := account(due, sent, done)
		log.lat, log.late, log.done = append(log.lat, int64(p.latency)), append(log.late, int64(p.lateness)), append(log.done, done)
		ok := err == nil && got.Found == want[key].found && (presenceOnly || got.Value == want[key].value)
		if !ok {
			log.failed++
			if log.firstFailure == "" {
				log.firstFailure = fmt.Sprintf("lookup %q: got %+v, %v; want %+v", key, got, err, want[key])
			}
		}
	}
}

// ingestLog is what the ingest client measured.
type ingestLog struct {
	visible  []int64 // round trip of each POST …/tables?wait=1, ns
	firstAck []int64 // time to the first acknowledgement line, ns
	nextLSN  int64   // the LSN the next accepted table must get
}

// postTables sends one wait=1 ingest request and checks it: every table
// accepted with the next dense LSN, synthesis applied, log drained.
func (l *ingestLog) postTables(ctx context.Context, c *client.Client, tables []client.IngestTable, rep *report) {
	t0 := time.Now()
	var first time.Duration
	dense := true
	trailer, err := c.IngestTables(ctx, tables, client.IngestOptions{Wait: true}, func(ln client.IngestLine) error {
		if first == 0 {
			first = time.Since(t0)
		}
		if ln.Err != nil || ln.LSN != l.nextLSN {
			dense = false
		}
		l.nextLSN++
		return nil
	})
	l.visible = append(l.visible, int64(time.Since(t0)))
	l.firstAck = append(l.firstAck, int64(first))
	ok := err == nil && dense && trailer.Accepted == len(tables) && trailer.Synthesis == "applied" &&
		trailer.AppliedLSN == trailer.HeadLSN
	rep.check(ok, "ingest of %d tables: dense LSNs %v, trailer %+v, %v", len(tables), dense, trailer, err)
}

// postEvery is the ingest client: post i is due at the schedule's slot i. A
// post that overruns its slot delays the next one (the caller waits for
// visibility); none is skipped, so the table count is fixed.
func (l *ingestLog) postEvery(ctx context.Context, c *client.Client, sched schedule, posts, size int, held []*table.Table, rep *report) {
	for i := 0; i < posts && ctx.Err() == nil; i++ {
		sched.wait(i)
		batch := make([]client.IngestTable, 0, size)
		for _, t := range held[min(i*size, len(held)):min((i+1)*size, len(held))] {
			batch = append(batch, wireTable(t))
		}
		l.postTables(ctx, c, batch, rep)
	}
}

// readWhile runs readers paced readers, one connection each, for as long as
// during takes.
func readWhile(ctx context.Context, url string, seed int64, ks keyspace, want map[string]lookupWant,
	presenceOnly bool, readers int, sched schedule, during func()) []readerLog {
	logs := make([]readerLog, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = pacedReader(ctx, oneConn(url), newPointStream(seed, i, ks), want, presenceOnly, sched, stop)
		}(i)
	}
	during()
	close(stop)
	wg.Wait()
	return logs
}

// mergeReaders flattens reader logs and counts their lookups into rep.
func mergeReaders(logs []readerLog, rep *report) (lat, late []int64) {
	for _, l := range logs {
		lat, late = append(lat, l.lat...), append(late, l.late...)
		rep.count(len(l.lat), l.failed, l.firstFailure)
	}
	return lat, late
}

// ingest-live: a reader completes 1000 lookups a second, so a slice of 100 is
// a tenth of a second; the posts' tail is taken over chunks of 7.
const (
	ingestSlice   = 100
	postsPerChunk = 7
)

// runIngestLive writes beside reads: one client posts sz.ingestSize
// held-out tables every sz.ingestGap with ?wait=1 while the other callers
// issue paced lookups.
func (e *env) runIngestLive(ctx context.Context) (*report, error) {
	rep := newReport("ingest-live", false)
	s, setupS, err := e.setupServing(ctx, true)
	if err != nil {
		return nil, err
	}
	defer s.srv.stop()
	orc, err := openOracle(s.path)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	ks := newKeyspace(e.seed, s.maps)
	want, err := orc.lookups(ctx, ks)
	if err != nil {
		return nil, err
	}
	posts := int(e.sz.seconds / e.sz.ingestGap)
	held := heldOut(posts * e.sz.ingestSize)
	runtime.GC() // set-up garbage goes before the window, while this process is the load generator

	// The window is the posting schedule's span; the server's CPU is read
	// once per posting slot.
	readers, window := max(runtime.NumCPU()-1, 1), time.Duration(posts)*e.sz.ingestGap
	start := time.Now()
	ing := ingestLog{nextLSN: 1}
	ingester := oneConn(s.srv.url)
	var cpu []cpuSample
	var cpuErr error
	logs := readWhile(ctx, s.srv.url, e.seed, ks, want, true, readers, newSchedule(start, e.sz.readerRate), func() {
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			cpu, cpuErr = sampleCPU(ctx, s.srv.pid(), start, window, e.sz.ingestGap)
		}()
		ing.postEvery(ctx, ingester, schedule{start: start, interval: e.sz.ingestGap}, posts, e.sz.ingestSize, held, rep)
		<-sampled
	})
	ran := time.Since(start)
	if cpuErr != nil {
		return nil, cpuErr
	}
	peak, err := procPeakRSSMB(s.srv.pid())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The log must drain, and what was served before must still be.
	drained := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		info, err := ingester.Corpus(client.DefaultCorpus).Get(ctx)
		if err == nil && info.Ingest != nil && info.Ingest.AppliedLSN == info.Ingest.HeadLSN && !info.Ingest.Pending {
			drained = info.Ingest.HeadLSN == ing.nextLSN-1
			break
		}
	}
	s.srv.checkAlive(rep)
	rep.check(drained, "ingest log did not drain to LSN %d within 15s", ing.nextLSN-1)
	for _, key := range ks.hot[:min(64, len(ks.hot))] {
		got, err := ingester.Lookup(ctx, key)
		rep.check(err == nil && got.Found, "base key %q after ingestion: %+v, %v", key, got, err)
	}

	var ops []opRec
	slotWorst := make([]float64, posts)
	for _, l := range logs {
		for i, done := range l.done {
			ops = append(ops, opRec{end: done.Sub(start), lat: time.Duration(l.lat[i]), units: 1, timed: true})
			k := min(max(int(done.Sub(start)/e.sz.ingestGap), 0), posts-1)
			slotWorst[k] = max(slotWorst[k], float64(l.lat[i])/1e6)
		}
	}
	sortOps(ops)
	lat, late := mergeReaders(logs, rep)
	// The readers are paced, so what they completed is divided by the time
	// they ran, and their median latency is taken over slices as on
	// query-point. The tail is what the publishes make, and the posts are a
	// fixed sequence of unlike tables: the quiet tenth of them would be the
	// cheap posts, not the quiet moments. So what a post decides is a
	// median: over the posting slots of the slowest lookup completed in each
	// (the typical worst stall one publish causes) and of the server's CPU
	// per lookup in each, over the posts of their round trip, and over
	// chunks of posts of each chunk's slowest.
	rep.set("throughput_per_s", float64(len(lat))/ran.Seconds())
	rep.set("p50_ms", medianFloat(sliceQuantiles(cutSlices(ops, ingestSlice), 0.5)))
	rep.set("p99_ms", medianFloat(slotWorst))
	rep.set("cpu_us_per_op", medianFloat(cpuPerUnit(cpu, ops)))
	rep.set("visible_p50_ms", float64(medianInt(ing.visible))/1e6)
	rep.set("visible_p99_ms", medianFloat(chunkValues(ing.visible, postsPerChunk, 1)))
	servedMetrics(rep, s, setupS, peak)
	rep.notef("reader latency over the whole window: %s", describe(summarize(lat)))
	rep.notef("post round trips, all of them: %s", describe(summarize(ing.visible)))
	rep.notef("per post, ms: round trip %.0f", msOf(ing.visible))
	rep.notef("per posting slot, ms: slowest lookup %.1f", slotWorst)
	rep.notef("%d readers paced at %.0f lookups/s each, send lateness: %s", readers, e.sz.readerRate, describe(summarize(late)))
	rep.notef("%d posts of %d tables every %s; first ack: %s", posts, e.sz.ingestSize, e.sz.ingestGap, describe(summarize(ing.firstAck)))
	return rep, nil
}
