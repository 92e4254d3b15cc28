package main

import (
	"math"
	"slices"
	"time"
)

// Timings are kept as exact per-sample values (nanoseconds, no buckets) and
// summarised by nearest-rank quantiles over the sorted samples.

// quantile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q of the samples at or below it.
// It returns 0 for an empty slice.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

func sorted(samples []int64) []int64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s
}

// tailLadder lists the percentiles a report may quote as its tail.
var tailLadder = []float64{0.9, 0.99, 0.999, 0.9999}

// supportedTail returns the highest percentile of tailLadder that still has
// at least ten samples beyond its nearest-rank position in a sample of n,
// or ok=false when even the lowest has fewer (the report then quotes the
// maximum and says so).
func supportedTail(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			q, ok = p, true
		}
	}
	return q, ok
}

// summary is what a report prints for one timing over a whole run: the
// median, the highest supported tail, and the sample count they rest on.
type summary struct {
	N     int
	P50   int64
	P99   int64
	TailQ float64 // 0 when the sample supports no ladder percentile
	Tail  int64   // the TailQ quantile, or the maximum when TailQ is 0
}

func summarize(samples []int64) summary {
	s := sorted(samples)
	sum := summary{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	if q, ok := supportedTail(len(s)); ok {
		sum.TailQ, sum.Tail = q, quantile(s, q)
	} else if len(s) > 0 {
		sum.Tail = s[len(s)-1]
	}
	return sum
}

// medianInt is the nearest-rank median of unsorted samples.
func medianInt(samples []int64) int64 { return quantile(sorted(samples), 0.5) }

// medianFloat is the nearest-rank median of unsorted values.
func medianFloat(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	return s[(len(s)+1)/2-1]
}

// quietShare is where a gated tail is read: at the quiet tenth of the slices
// of its window. A tail is what disturbances make, and on a shared host most
// are other tenants': the whole-window p99 of the same code moved by a factor
// of two from run to run, the median over slices of each slice's p99 by 40%,
// the quiet tenth of them by 10%. What the program itself does to its tail —
// a collection, a lock, a publish — it does in every slice, the quiet ones
// too, and so still moves the number.
const quietShare = 0.10

// quietLow is the nearest-rank quietShare-quantile of slice values of which
// lower is better: the value the quietest tenth of the slices stays at or
// under. Fewer than ten slices give the best one; none give 0.
func quietLow(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	return s[quietRank(len(s))]
}

func quietRank(n int) int { return max(int(math.Ceil(quietShare*float64(n)))-1, 0) }

// opRec is one completed operation of a measured window.
type opRec struct {
	end   time.Duration // completion, from the start of the window
	lat   time.Duration // its latency
	units int           // work it carried: 1, or the rows of a batch
	timed bool          // whether lat belongs in p50_ms/p99_ms
}

// slice is a run of consecutive completions of a window, all clients
// together: the work they carried, the wall time from the completion before
// the first to the last, and the latencies of the timed ones in ns.
type slice struct {
	units int
	wall  time.Duration
	lat   []int64
}

// cutSlices cuts ops, sorted by completion, into slices of per completions.
// A slice is cut by count and not by the clock so that its rate is a
// measured time and not a small whole number; the first slice only marks
// where the second begins, and a last partial slice is dropped.
func cutSlices(ops []opRec, per int) []slice {
	var out []slice
	for i := per; i+per <= len(ops); i += per {
		sl := slice{wall: ops[i+per-1].end - ops[i-1].end}
		for _, op := range ops[i : i+per] {
			sl.units += op.units
			if op.timed {
				sl.lat = append(sl.lat, int64(op.lat))
			}
		}
		out = append(out, sl)
	}
	return out
}

// minSliceLats is the least number of timed latencies a slice must hold for
// its quantile to count.
const minSliceLats = 8

// sliceRates is each slice's units per second.
func sliceRates(sl []slice) []float64 {
	var out []float64
	for _, s := range sl {
		if s.wall > 0 {
			out = append(out, float64(s.units)/s.wall.Seconds())
		}
	}
	return out
}

// sliceQuantiles is each slice's nearest-rank q-quantile of latency, ms.
func sliceQuantiles(sl []slice, q float64) []float64 {
	var out []float64
	for _, s := range sl {
		if len(s.lat) >= minSliceLats {
			out = append(out, float64(quantile(sorted(s.lat), q))/1e6)
		}
	}
	return out
}

// cpuSample is a process's CPU time read at an instant of the window.
type cpuSample struct {
	at  time.Duration // from the start of the window
	cpu time.Duration // used so far
}

// cpuPerUnit divides, for each interval between two CPU samples, the CPU
// time used by the units of the ops completed in it: microseconds per unit.
// Intervals without completions are skipped. ops are sorted by completion.
func cpuPerUnit(samples []cpuSample, ops []opRec) []float64 {
	var out []float64
	i := 0
	for k := 1; k < len(samples); k++ {
		for i < len(ops) && ops[i].end < samples[k-1].at {
			i++
		}
		units := 0
		for ; i < len(ops) && ops[i].end < samples[k].at; i++ {
			units += ops[i].units
		}
		if used := samples[k].cpu - samples[k-1].cpu; units > 0 && used >= 0 {
			out = append(out, float64(used)/1e3/float64(units))
		}
	}
	return out
}

// chunkValues cuts samples, in the order they were taken, into consecutive
// chunks of per samples (a last short chunk joins the one before) and
// returns each chunk's nearest-rank q-quantile in ms: the slices of a
// sequence of repetitions too slow to be cut by the clock.
func chunkValues(samples []int64, per int, q float64) []float64 {
	var out []float64
	for i := 0; i < len(samples); {
		j := i + per
		if len(samples)-j < per {
			j = len(samples)
		}
		out = append(out, float64(quantile(sorted(samples[i:j]), q))/1e6)
		i = j
	}
	return out
}

// selfTimes turns the medians of a ladder of rungs — the same queries timed
// at successive boundaries, innermost first — into each rung's own cost:
// its median minus that of the rung below. The self times sum to the top
// rung by construction; a negative one means the ladder is not nested (or
// the difference is below the noise) and is reported as measured.
func selfTimes(rungs []float64) []float64 {
	self := make([]float64, len(rungs))
	below := 0.0
	for i, r := range rungs {
		self[i] = r - below
		below = r
	}
	return self
}
