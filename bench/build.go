package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
)

// build-web runs in a fresh child process (this executable, re-run with
// -child build) so that CPU time and peak memory are those of synthesis
// alone. The child prints "ready" once set-up — corpus generation and the
// warm-up Engine.Run — is done, then measures and prints one JSON object.

// buildOut is what the measuring child reports.
type buildOut struct {
	Tables    int       `json:"tables"`
	RunNs     []int64   `json:"run_ns"`     // wall of each timed Engine.Run
	RunCPUNs  []int64   `json:"run_cpu_ns"` // utime+stime of each timed Run
	Mappings  []int     `json:"mappings"`   // per run, must all agree
	Pairs     []int     `json:"pairs"`      // per run, must all agree
	VerifyErr string    `json:"verify_err,omitempty"`
	Bytes     int64     `json:"bytes"`
	F1        float64   `json:"f1"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Edges     int       `json:"edges"`
	StageS    []float64 `json:"stage_s"` // last run's stage walls, execution order
}

// minTimedRuns is the least number of timed runs a measuring child makes,
// however short the window.
const minTimedRuns = 3

// buildChild is the body of the child process.
func buildChild(scale float64, window time.Duration, snapPath string) error {
	ctx := context.Background()
	c := generate(scale)
	eng := pipeline.New(pipeline.DefaultConfig())
	if _, err := eng.Run(ctx, c.Tables); err != nil {
		return err
	}
	fmt.Println("ready")
	if window <= 0 {
		return nil
	}
	out := buildOut{Tables: len(c.Tables)}
	self := os.Getpid()
	var last *pipeline.Result
	for start := time.Now(); len(out.RunNs) < minTimedRuns || time.Since(start) < window; {
		cpu0, err := procCPU(self)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := eng.Run(ctx, c.Tables)
		if err != nil {
			return err
		}
		out.RunNs = append(out.RunNs, int64(time.Since(t0)))
		cpu1, err := procCPU(self)
		if err != nil {
			return err
		}
		out.RunCPUNs = append(out.RunCPUNs, int64(cpu1-cpu0))
		out.Mappings = append(out.Mappings, len(res.Mappings))
		out.Pairs = append(out.Pairs, countPairs(res.Mappings))
		last = res
	}
	out.Edges = last.Edges
	for _, st := range last.Stages {
		out.StageS = append(out.StageS, st.Duration.Seconds())
	}
	// The synthesized result becomes a file a server can map, and is checked.
	if err := snapshot.WriteFileV2(snapPath, last.Mappings); err != nil {
		return err
	}
	h, err := snapshot.Open(snapPath)
	if err != nil {
		return err
	}
	if err := h.Verify(); err != nil {
		out.VerifyErr = err.Error()
	}
	h.Close()
	fi, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	out.Bytes = fi.Size()
	out.F1 = qualityF1(c, last.Mappings)
	if out.PeakRSSMB, err = procPeakRSSMB(self); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawnBuild runs one child. It returns the wall time from spawn to "ready"
// (the set-up) and, for a measuring child, its report.
func (e *env) spawnBuild(ctx context.Context, window time.Duration) (setupS float64, out *buildOut, err error) {
	cmd := exec.CommandContext(ctx, e.self, "-child", "build",
		"-child-scale", strconv.FormatFloat(e.sz.scale, 'g', -1, 64),
		"-child-window", window.String(),
		"-child-snap", e.path("build.snap"))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	defer func() {
		if werr := cmd.Wait(); err == nil && werr != nil {
			err = fmt.Errorf("build child: %w", werr)
		}
	}()
	rd := bufio.NewReaderSize(stdout, 1<<20)
	if line, rerr := rd.ReadString('\n'); rerr != nil || line != "ready\n" {
		return 0, nil, fmt.Errorf("build child: want \"ready\", got %q (%v)", line, rerr)
	}
	setupS = time.Since(t0).Seconds()
	if window <= 0 {
		return setupS, nil, nil
	}
	out = new(buildOut)
	if err := json.NewDecoder(rd).Decode(out); err != nil {
		return 0, nil, fmt.Errorf("build child: reading report: %w", err)
	}
	return setupS, out, nil
}

// runBuildWeb is the offline workload: set-up sz.setups times, the last
// child going on to time Engine.Run for the window.
func (e *env) runBuildWeb(ctx context.Context) (*report, error) {
	rep := newReport("build-web", false)
	var setups []float64
	var out *buildOut
	for i := 0; i < e.sz.setups; i++ {
		window := time.Duration(0)
		if i == e.sz.setups-1 {
			window = e.sz.seconds
		}
		s, o, err := e.spawnBuild(ctx, window)
		if err != nil {
			return nil, err
		}
		setups, out = append(setups, s), o
	}
	perTable := make([]float64, len(out.RunCPUNs))
	for i, ns := range out.RunCPUNs {
		perTable[i] = float64(ns) / 1e3 / float64(out.Tables)
	}
	runs := summarize(out.RunNs)
	rep.set("setup_s", medianFloat(setups))
	rep.set("throughput_per_s", float64(out.Tables)/(float64(runs.P50)/1e9))
	rep.set("p50_ms", float64(runs.P50)/1e6)
	rep.set("cpu_us_per_op", medianFloat(perTable))
	repeatPrimary(rep, "p50_ms", "p99_ms", "visible_p50_ms", "visible_p99_ms")
	rep.set("peak_rss_mb", out.PeakRSSMB)
	rep.set("quality_f1", out.F1)
	rep.set("bytes_per_pair", float64(out.Bytes)/float64(out.Pairs[0]))

	for i := range out.RunNs {
		rep.check(out.Mappings[i] == out.Mappings[0] && out.Pairs[i] == out.Pairs[0],
			"run %d synthesized %d mappings / %d pairs, run 0 %d / %d", i, out.Mappings[i], out.Pairs[i], out.Mappings[0], out.Pairs[0])
	}
	rep.check(out.VerifyErr == "", "snapshot Verify: %s", out.VerifyErr)
	rep.check(out.F1 >= e.sz.minF1, "quality_f1 %.4f is below the floor %.2f", out.F1, e.sz.minF1)
	rep.notef("Engine.Run over %d tables, all runs: %s", out.Tables, describe(runs))
	rep.notef("per run, ms: wall %.0f", msOf(out.RunNs))
	rep.notef("%d mappings, %d pairs, %d edges, %d bytes; last run's stages %.3f s", out.Mappings[0], out.Pairs[0], out.Edges, out.Bytes, out.StageS)
	return rep, nil
}
