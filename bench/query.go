package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

// outcome is one completed request of a closed loop.
type outcome struct {
	rows  int    // work units: 1 for a single call, columnRows for a batch
	timed bool   // whether its latency belongs in p50_ms/p99_ms
	fail  string // non-empty when the request failed or answered wrongly
}

// sampleCPU reads a process's CPU time every period of the window, first at
// its start, and stamps each reading with the instant it was made. It
// returns when the window ends.
func sampleCPU(ctx context.Context, pid int, from time.Time, window, every time.Duration) ([]cpuSample, error) {
	var samples []cpuSample
	for at := time.Duration(0); at <= window; at += every {
		sleepUntil(ctx, from.Add(at))
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		samples = append(samples, cpuSample{at: time.Since(from), cpu: cpu})
	}
	return samples, ctx.Err()
}

// loopResult is a measured window of a closed loop against one server.
type loopResult struct {
	ops          []opRec     // requests started inside the window, all clients, by completion
	cpu          []cpuSample // the server's CPU time through the window
	failed       int
	firstFailure string
	peakRSS      float64 // server VmHWM at the end of the window, MB
}

// closedLoop drives clients callers, one connection each, each sending its
// next request only after the previous one completed, for warmup+window.
// Requests started inside the window are recorded one by one; the server's
// CPU time is read every cpuEvery.
func closedLoop(ctx context.Context, srv *server, clients int, warmup, window, cpuEvery time.Duration,
	newOp func(client int) func(context.Context) outcome) (loopResult, error) {
	from := time.Now().Add(warmup)
	to := from.Add(window)
	logs := make([]loopResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op, log := newOp(i), &logs[i]
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(to) {
					return
				}
				out := op(ctx)
				end := time.Now()
				if t0.Before(from) {
					continue
				}
				log.ops = append(log.ops, opRec{end: end.Sub(from), lat: end.Sub(t0), units: out.rows, timed: out.timed})
				if out.fail != "" {
					log.failed++
					if log.firstFailure == "" {
						log.firstFailure = out.fail
					}
				}
			}
		}(i)
	}
	cpu, err := sampleCPU(ctx, srv.pid(), from, window, cpuEvery)
	wg.Wait()
	if err != nil {
		return loopResult{}, err
	}
	res := loopResult{cpu: cpu}
	for _, l := range logs {
		res.ops = append(res.ops, l.ops...)
		res.failed += l.failed
		if res.firstFailure == "" {
			res.firstFailure = l.firstFailure
		}
	}
	sortOps(res.ops)
	res.peakRSS, err = procPeakRSSMB(srv.pid())
	return res, err
}

func sortOps(ops []opRec) {
	slices.SortFunc(ops, func(a, b opRec) int { return cmp.Compare(a.end, b.end) })
}

func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-time.After(time.Until(t)):
	case <-ctx.Done():
	}
}

// checkPublish publishes the served mapping set once more to the live node —
// written as a new snapshot file (WriteFileV2, in this process, as
// cmd/synthesize would), loaded with POST /v1/reload — and checks a lookup
// against the new version. It runs once the closed loop has stopped, on the
// quiet server (README.md, "A finding"), and is not timed: visible_* belongs
// to ingest-live.
func (e *env) checkPublish(ctx context.Context, s *served, key string, want lookupWant, rep *report) {
	c, path := oneConn(s.srv.url), e.path("publish.snap")
	err := snapshot.WriteFileV2(path, s.maps)
	if err == nil {
		_, err = c.Reload(ctx, client.ReloadRequest{Snapshot: path})
	}
	rep.check(err == nil, "publish: %v", err)
	if err != nil {
		return
	}
	got, err := c.Lookup(ctx, key)
	rep.check(err == nil && sameLookup(got, want), "lookup %q after the publish: got %+v, %v; want %+v", key, got, err, want)
}

// repeatPrimary fills the metrics that do not apply to a workload with its
// primary timing: the driver wants every end-to-end metric from every run,
// and a second measurement nobody asked for would only add a second noisy
// number to gate.
func repeatPrimary(rep *report, primary string, names ...string) {
	for _, n := range names {
		rep.set(n, rep.Values[primary])
	}
}

// slicing says how a workload's window is cut: how many completions make a
// slice of throughput_per_s and p50_ms, and how many a slice of p99_ms.
type slicing struct {
	per, perTail int
}

// windowMetrics fills the four numbers of a measured window from its slices
// (stats.go): throughput and latency over slices of consecutive
// completions, CPU per unit of work over the intervals between the CPU
// samples. What describes the centre — throughput, median latency, CPU — is
// the median over the slices of each slice's own value: a stall, however
// long, spoils one slice of hundreds and decides nothing, where it would
// weigh on a mean rate by its whole length. The tail is read at the quiet
// tenth of the slices of each slice's p99.
func windowMetrics(rep *report, ops []opRec, cpu []cpuSample, sl slicing) {
	short, long := cutSlices(ops, sl.per), cutSlices(ops, sl.perTail)
	rates, p50s, p99s := sliceRates(short), sliceQuantiles(short, 0.5), sliceQuantiles(long, 0.99)
	cpus := cpuPerUnit(cpu, ops)
	rep.set("throughput_per_s", medianFloat(rates))
	rep.set("p50_ms", medianFloat(p50s))
	rep.set("p99_ms", quietLow(p99s))
	rep.set("cpu_us_per_op", medianFloat(cpus))

	// The whole window, for the reader: what a plain summary would say.
	var all []int64
	units := 0
	for _, op := range ops {
		units += op.units
		if op.timed {
			all = append(all, int64(op.lat))
		}
	}
	if n := len(ops); n > 0 && len(cpu) > 1 {
		span := ops[n-1].end - ops[0].end
		used := cpu[len(cpu)-1].cpu - cpu[0].cpu
		rep.notef("whole window: %.0f units/s, %.1f us CPU per unit, latency %s",
			float64(units)/span.Seconds(), float64(used.Microseconds())/float64(max(units, 1)), describe(summarize(all)))
	}
	rep.notef("%d slices of %d completions, %d of %d (median of their p99 %.4f ms), %d CPU intervals",
		len(short), sl.per, len(long), sl.perTail, medianFloat(p99s), len(cpus))
}

// servedMetrics fills what every serving workload takes the same way from
// its set-up, its server and the artifact it serves.
func servedMetrics(rep *report, s *served, setupS, peakRSS float64) {
	rep.set("setup_s", setupS)
	rep.set("peak_rss_mb", peakRSS)
	rep.set("quality_f1", qualityF1(s.corpus, s.maps))
	rep.set("bytes_per_pair", float64(s.bytes)/float64(s.pairs))
	rep.notef("snapshot: %d mappings, %d pairs, %d bytes", len(s.maps), s.pairs, s.bytes)
}

// describe renders a timing the way reports quote it: median, the highest
// percentile with at least ten samples beyond it, and the sample count.
func describe(s summary) string {
	if s.N == 0 {
		return "no samples"
	}
	tail := fmt.Sprintf("max %.3f ms", float64(s.Tail)/1e6)
	if s.TailQ > 0 {
		tail = fmt.Sprintf("p%g %.3f ms", s.TailQ*100, float64(s.Tail)/1e6)
	}
	return fmt.Sprintf("median %.3f ms, %s, n=%d", float64(s.P50)/1e6, tail, s.N)
}

// query-point: a lookup takes about a quarter of a millisecond, so a slice of
// 64 completions is under 10 ms of the window and one of 512, whose p99 is its
// sixth slowest, some 70 ms; the server's CPU is read every 20 ms.
var pointSlicing = slicing{per: 64, perTail: 512}

const pointCPUEvery = 20 * time.Millisecond

// runQueryPoint is the closed loop of GET /v1/lookup.
func (e *env) runQueryPoint(ctx context.Context) (*report, error) {
	rep := newReport("query-point", false)
	s, setupS, err := e.setupServing(ctx, false)
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
	runtime.GC() // set-up garbage goes before the window, while this process is the load generator

	clients := runtime.NumCPU()
	res, err := closedLoop(ctx, s.srv, clients, e.sz.warmup, e.sz.seconds, pointCPUEvery, func(i int) func(context.Context) outcome {
		c, stream := oneConn(s.srv.url), newPointStream(e.seed, i, ks)
		return func(ctx context.Context) outcome {
			key := stream.next()
			got, err := c.Lookup(ctx, key)
			switch {
			case err != nil:
				return outcome{rows: 1, timed: true, fail: fmt.Sprintf("lookup %q: %v", key, err)}
			case !sameLookup(got, want[key]):
				return outcome{rows: 1, timed: true, fail: fmt.Sprintf("lookup %q: got found=%v value=%q, want %+v", key, got.Found, got.Value, want[key])}
			}
			return outcome{rows: 1, timed: true}
		}
	})
	if err != nil {
		return nil, err
	}
	rep.count(len(res.ops), res.failed, res.firstFailure)
	e.checkPublish(ctx, s, ks.hot[0], want[ks.hot[0]], rep)
	s.srv.checkAlive(rep)
	windowMetrics(rep, res.ops, res.cpu, pointSlicing)
	repeatPrimary(rep, "p50_ms", "visible_p50_ms")
	repeatPrimary(rep, "p99_ms", "visible_p99_ms")
	servedMetrics(rep, s, setupS, res.peakRSS)
	rep.notef("%d clients, one connection each; keys: %d hot of %d, %d absent", clients, len(ks.hot), len(ks.all), len(ks.absent))
	return rep, nil
}

// query-mixed: some 200 requests a second, four in seven of them timed
// singles. A slice of 32 completions is about 150 ms; a tail slice of 256
// holds about 150 singles, so its p99 is its second slowest and the window
// gives a dozen of them. The server's CPU is read every 200 ms.
var mixedSlicing = slicing{per: 32, perTail: 256}

const mixedCPUEvery = 200 * time.Millisecond

// runQueryMixed is the closed loop of the three applications, singles and
// 16-row batches.
func (e *env) runQueryMixed(ctx context.Context) (*report, error) {
	rep := newReport("query-mixed", false)
	s, setupS, err := e.setupServing(ctx, false)
	if err != nil {
		return nil, err
	}
	defer s.srv.stop()
	orc, err := openOracle(s.path)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	qp := newQueryPool(e.seed, s.maps, mixedPoolSize)
	want, err := orc.answers(ctx, qp)
	if err != nil {
		return nil, err
	}
	ks := newKeyspace(e.seed, s.maps)
	probe, err := orc.lookup(ctx, ks.hot[0])
	if err != nil {
		return nil, err
	}
	runtime.GC() // set-up garbage goes before the window, while this process is the load generator

	clients := runtime.NumCPU()
	res, err := closedLoop(ctx, s.srv, clients, e.sz.warmup, e.sz.seconds, mixedCPUEvery, func(i int) func(context.Context) outcome {
		c, stream := oneConn(s.srv.url), newMixedStream(e.seed, i, mixedPoolSize)
		return func(ctx context.Context) outcome { return issueMixed(ctx, c, stream.next(), qp, want) }
	})
	if err != nil {
		return nil, err
	}
	rep.count(len(res.ops), res.failed, res.firstFailure)
	e.checkPublish(ctx, s, ks.hot[0], probe, rep)
	s.srv.checkAlive(rep)
	windowMetrics(rep, res.ops, res.cpu, mixedSlicing)
	repeatPrimary(rep, "p50_ms", "visible_p50_ms")
	repeatPrimary(rep, "p99_ms", "visible_p99_ms")
	servedMetrics(rep, s, setupS, res.peakRSS)
	rep.notef("%d clients, one connection each; %d requests; pool of %d queries per application", clients, len(res.ops), mixedPoolSize)
	return rep, nil
}

// issueMixed sends one drawn operation and checks every answer against the
// oracle's.
func issueMixed(ctx context.Context, c *client.Client, op mixedOp, qp queryPool, want poolWant) outcome {
	out := outcome{rows: len(op.rows)}
	isBatch, single := op.kind.batch()
	out.timed = !isBatch
	fail := func(format string, args ...any) outcome {
		out.fail = op.kind.String() + ": " + fmt.Sprintf(format, args...)
		return out
	}
	if !isBatch {
		q := op.rows[0]
		switch single {
		case opFill:
			got, err := c.AutoFill(ctx, qp.fill[q])
			if err != nil || !sameFill(*got, want.fill[q]) {
				return fail("query %d: got %+v, %v; want %+v", q, got, err, want.fill[q])
			}
		case opCorrect:
			got, err := c.AutoCorrect(ctx, qp.correct[q])
			if err != nil || !sameCorrect(*got, want.correct[q]) {
				return fail("query %d: got %+v, %v; want %+v", q, got, err, want.correct[q])
			}
		case opJoin:
			got, err := c.AutoJoin(ctx, qp.join[q])
			if err != nil || !sameJoin(*got, want.join[q]) {
				return fail("query %d: got %+v, %v; want %+v", q, got, err, want.join[q])
			}
		}
		return out
	}
	// A batch is correct when every row came back once, equal to the
	// oracle's answer for that row's query, under a clean trailer.
	lines, wrong := 0, ""
	note := func(index int, rowErr *client.APIError, same func(q int) bool) error {
		lines++
		if index < 0 || index >= len(op.rows) || rowErr != nil || !same(op.rows[index]) {
			wrong = fmt.Sprintf("row %d is out of range, an error line (%v) or differs from the oracle", index, rowErr)
		}
		return nil
	}
	var trailer *client.BatchTrailer
	var err error
	switch single {
	case opFill:
		reqs := make([]client.AutoFillRequest, len(op.rows))
		for i, q := range op.rows {
			reqs[i] = qp.fill[q]
		}
		trailer, err = c.BatchAutoFill(ctx, reqs, func(ln client.BatchLine[client.AutoFillResponse]) error {
			return note(ln.Index, ln.Err, func(q int) bool { return sameFill(ln.Response, want.fill[q]) })
		})
	case opCorrect:
		reqs := make([]client.AutoCorrectRequest, len(op.rows))
		for i, q := range op.rows {
			reqs[i] = qp.correct[q]
		}
		trailer, err = c.BatchAutoCorrect(ctx, reqs, func(ln client.BatchLine[client.AutoCorrectResponse]) error {
			return note(ln.Index, ln.Err, func(q int) bool { return sameCorrect(ln.Response, want.correct[q]) })
		})
	case opJoin:
		reqs := make([]client.AutoJoinRequest, len(op.rows))
		for i, q := range op.rows {
			reqs[i] = qp.join[q]
		}
		trailer, err = c.BatchAutoJoin(ctx, reqs, func(ln client.BatchLine[client.AutoJoinResponse]) error {
			return note(ln.Index, ln.Err, func(q int) bool { return sameJoin(ln.Response, want.join[q]) })
		})
	}
	switch {
	case err != nil:
		return fail("stream: %v", err)
	case wrong != "":
		return fail("%s", wrong)
	case lines != len(op.rows) || trailer.Results != len(op.rows) || trailer.Errors != 0 || trailer.Truncated:
		return fail("sent %d rows, got %d lines, trailer %+v", len(op.rows), lines, *trailer)
	}
	return out
}
