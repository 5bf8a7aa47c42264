package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over fewer than 1,000 samples would rest on a
// handful of points.
const minBeyond = 10

// tailLadder is the set of percentiles a tail is reported at, highest
// first; tailPct picks the highest one the sample count supports.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// percentile returns the p-th percentile of sorted (linear interpolation
// between closest ranks).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := float64(n-1) * p / 100
	i := int(h)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + (h-float64(i))*(sorted[i+1]-sorted[i])
}

// beyond is how many of n samples lie above the p-th percentile (the
// epsilon absorbs 100-p not being exact in binary).
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailPct returns the highest percentile of the ladder, capped at max,
// that has at least minBeyond of n samples beyond it; the median when
// none has.
func tailPct(n int, max float64) float64 {
	for _, p := range tailLadder {
		if p <= max && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// summary is the distribution record of one metric's samples.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  float64 `json:"tail_p"`
	Tail   float64 `json:"tail"`
}

// summarize sorts a copy of xs and returns its median, quartiles and
// highest supported tail percentile.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := tailPct(len(s), 100)
	return summary{N: len(s), Median: percentile(s, 50), Q1: percentile(s, 25), Q3: percentile(s, 75), TailP: p, Tail: percentile(s, p)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tail is the p99, or the highest percentile below it that the samples
// support.
func tail(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, tailPct(len(s), 99))
}

// Host-time end-to-end metrics come from the calm part of a run. Other
// tenants of a shared host slow the simulator in spells lasting from
// milliseconds to minutes, dd-hot by up to 1.9×, and a median over a
// whole run lands on the calm or the contended speed depending on the run
// (see README.md). Contention only adds time, so:
//
//   - A batch workload repeats the same batch, whose ops are the same
//     sequence of operations every time. Each op's floor, the least host
//     time it took in any batch of the run, is its cost on a calm host;
//     latency is the distribution of the floors over a batch's ops.
//     Throughput comes from the fastest fastBatches of the batches, which
//     hold what no floor does: a server batch's fork, a sweep's fan-out,
//     and the collections and co-running points that only some batches'
//     op i meets.
//   - service-open's requests have no batches, so its measured phases are
//     cut into windows: latency is taken over the samples of the calmest
//     latency windows, throughput over the fastest rate windows.
//   - setup_s comes from the fastest set-ups.
const (
	fastBatches = 0.02 // share of the batches kept
	// A latency window holds 15 open-loop requests: short enough to fit
	// between the spells, and ranked by its mean so that a spell that
	// slows a few of its requests counts against it.
	latWindow   = 50 * time.Millisecond
	rateWindow  = 250 * time.Millisecond
	calmSamples = 0.1  // share of the latency samples kept
	minCalm     = 1000 // latency samples kept at least, so the p99 has ten beyond it
	fastShare   = 0.25 // share of the rate windows and set-ups kept
)

// lowerFloor lowers each op's floor to its host time in one batch, lat
// (the same ops in the same order in every batch), and returns the
// floors; nil floors start at lat.
func lowerFloor(floor, lat []float64) []float64 {
	if floor == nil {
		return append([]float64(nil), lat...)
	}
	for i, us := range lat {
		floor[i] = min(floor[i], us)
	}
	return floor
}

// lowest returns the smallest share of xs (at least one), in order.
func lowest(xs []float64, share float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[:max(1, int(math.Round(share*float64(len(s)))))]
}

// window is what one window of a phase saw.
type window struct {
	width time.Duration
	lat   []float64 // host µs per op
	ops   int
	insts uint64
}

// windows cuts the phase into whole windows of width, dropping the
// partial last one; a phase shorter than one window is one window.
func (p *phase) windows(width time.Duration) []window {
	n := int(p.wall / width)
	short := n == 0
	if short {
		n, width = 1, p.wall
	}
	ws := make([]window, n)
	for i := range ws {
		ws[i].width = width
	}
	slot := func(at time.Duration) int {
		if short {
			return 0
		}
		return int(at / width)
	}
	for _, s := range p.lat {
		if i := slot(s.at); i < n {
			ws[i].lat = append(ws[i].lat, s.us)
		}
	}
	for _, e := range p.done {
		if i := slot(e.at); i < n {
			ws[i].ops += e.ops
			ws[i].insts += e.insts
		}
	}
	return ws
}

// calmLatency pools the latency samples of the calmest windows: windows
// ranked by their mean, taken until they hold calmSamples of all samples
// and at least minCalm (every sample when there are fewer).
func calmLatency(ws []window) []float64 {
	type ranked struct {
		mean float64
		lat  []float64
	}
	var rs []ranked
	total := 0
	for _, w := range ws {
		if len(w.lat) > 0 {
			rs = append(rs, ranked{sum(w.lat) / float64(len(w.lat)), w.lat})
			total += len(w.lat)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].mean < rs[j].mean })
	keep := max(int(math.Ceil(calmSamples*float64(total))), min(minCalm, total))
	var pool []float64
	for _, r := range rs {
		if len(pool) >= keep {
			break
		}
		pool = append(pool, r.lat...)
	}
	return pool
}

func (w window) rate() float64 { return float64(w.ops) / w.width.Seconds() }

// windowRates returns each window's ops per second.
func windowRates(ws []window) []float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = w.rate()
	}
	return xs
}

// fastRates returns the ops and simulated instructions per second over
// the fastest fastShare of windows (at least one), and how many windows
// that is.
func fastRates(ws []window) (ops, insts float64, n int) {
	if len(ws) == 0 {
		return 0, 0, 0
	}
	rs := append([]window(nil), ws...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].rate() > rs[j].rate() })
	n = max(1, int(math.Round(fastShare*float64(len(rs)))))
	var secs float64
	for _, w := range rs[:n] {
		ops += float64(w.ops)
		insts += float64(w.insts)
		secs += w.width.Seconds()
	}
	return ops / secs, insts / secs, n
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
