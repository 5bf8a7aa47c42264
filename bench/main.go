// Command bench is the repository's benchmark: it drives the simulator
// the way its users do — dd and server runs on one machine, fork-parallel
// sweeps, and requests to the fleet service — and reports host time end
// to end (untraced) or per layer (traced), after checking every simulated
// output it produces.
//
//	bash bench/run.sh --workload dd-hot --seed 1 --seconds 30 --trace 0
//
// Each workload prints one line per metric, "<workload> <metric> <value>
// <unit> n=<samples>", then one JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads, the
// metrics and the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(r *run) error
}

var workloads = []workloadDef{
	{"dd-hot", runDD},
	{"server-rerand", runServer},
	{"sweep-fork", runSweep},
	{"service-open", runService},
}

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: dd-hot, server-rerand, sweep-fork, service-open or all")
	seed := fs.Int64("seed", 1, "seed for machine boots and arrival times")
	seconds := fs.Float64("seconds", 30, "measurement time per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes trace_<workload>.json and cpu_<workload>.pprof")
	jsonPath := fs.String("json", "", "also write a result record with host fingerprint and per-metric distributions to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-json FILE]")
		return 2
	}
	var todo []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *trace == 1 {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	rec := newRecord(*seed, *seconds, *trace == 1)
	for _, w := range todo {
		r := &run{workload: w.name, seed: *seed, seconds: *seconds, metrics: map[string]metricValue{}, stderr: stderr}
		if *trace == 1 {
			r.rec = newRecorder()
		}
		if err := r.execute(w, *traceDir); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := r.print(stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec.add(r)
	}
	if *jsonPath != "" {
		if err := rec.write(*jsonPath); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// metricValue is one reported metric: its value, the number of samples
// or events behind it, and their distribution when there is one.
type metricValue struct {
	value   float64
	n       int
	samples []float64
}

// run is one workload run: its settings, the metrics it reports and the
// outcome of its output checks.
type run struct {
	workload string
	seed     int64
	seconds  float64
	rec      *recorder // traced runs only
	stderr   io.Writer

	mu        sync.Mutex // guards attempted, failed, problems
	attempted int
	failed    int
	problems  []string

	metrics map[string]metricValue
	mem     heapGoal

	// The work every batch does, and what a batch workload's batches saw:
	// each batch's host time, and each op's floor (see stats.go).
	batchOps   int
	batchInsts uint64
	batchSecs  []float64
	floor      []float64
	// service-open's windows: latency windows of its open loop give
	// op_p50_us and op_p99_us, rate windows of its closed loop ops_per_s
	// and sim_mips.
	latWin, rateWin []window
}

func (r *run) traced() bool { return r.rec != nil }

// set reports a metric.
func (r *run) set(name string, v float64, n int, samples []float64) {
	r.metrics[name] = metricValue{value: v, n: n, samples: samples}
}

// attempt counts ops attempted.
func (r *run) attempt(ops int) {
	r.mu.Lock()
	r.attempted += ops
	r.mu.Unlock()
}

// problem records a failed output check, counting ops as failed.
func (r *run) problem(ops int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += ops
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
		fmt.Fprintf(r.stderr, "bench: %s: check failed: %s\n", r.workload, msg)
	}
}

func (r *run) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.problems) == 0 && r.failed == 0
}

// execute runs the workload; a traced run also profiles it and writes
// its spans.
func (r *run) execute(w workloadDef, traceDir string) error {
	if !r.traced() {
		return w.run(r)
	}
	f, err := os.Create(filepath.Join(traceDir, "cpu_"+w.name+".pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	err = w.run(r)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return r.rec.writeChrome(filepath.Join(traceDir, "trace_"+w.name+".json"), w.name, r.seed)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueEntry `json:"metrics"`
}

type valueEntry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric and then the JSON result line. It
// writes nothing unless every declared metric was set to a finite value.
func (r *run) print(w io.Writer) error {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueEntry{}}
	if res.Attempted < 1 {
		return errors.New("no operations attempted")
	}
	var out strings.Builder
	var bad []string
	for _, d := range metricsFor(r.traced()) {
		m, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			bad = append(bad, d.Name)
			continue
		}
		fmt.Fprintf(&out, "%s %s %v %s n=%d\n", r.workload, d.Name, m.value, d.Unit, m.n)
		res.Metrics[d.Name] = valueEntry{Value: m.value, Unit: d.Unit}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(bad, ", "))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", out.String(), b)
	return err
}

// phase is what one measurement loop saw.
type phase struct {
	lat  []stamp // host µs per op
	done []event // completions
	ops  int
	wall time.Duration
}

// stamp is one latency sample and when it was taken, from the phase
// start: when its op or batch ended, or, in an open loop, when its
// request was due.
type stamp struct {
	at time.Duration
	us float64
}

// event is one completed batch, request or sweep point.
type event struct {
	at    time.Duration // from the phase start
	ops   int
	insts uint64 // simulated instructions retired
}

func (p *phase) add(e event) {
	p.done = append(p.done, e)
	p.ops += e.ops
}

// latencies returns the phase's latency samples.
func (p *phase) latencies() []float64 {
	xs := make([]float64, len(p.lat))
	for i, s := range p.lat {
		xs[i] = s.us
	}
	return xs
}

// batchOut is what one batch did: the ops it attempted, the simulated
// instructions they retired, and the host µs of each op it timed, in the
// same order in every batch (valid until the next batch).
type batchOut struct {
	ops   int
	insts uint64
	lat   []float64
}

// intervals appends to dst the host µs from each of ts to the next.
func intervals(dst []float64, ts []time.Time) []float64 {
	for i := 1; i < len(ts); i++ {
		dst = append(dst, usf(ts[i].Sub(ts[i-1])))
	}
	return dst
}

// batchFn runs one batch of simulated operations: acc, when non-nil,
// receives its per-layer timers and parent is the span its own spans
// hang under; obs attaches the simulator's own event tracer.
type batchFn func(acc *layerAcc, obs bool, parent uint64) (batchOut, error)

// measure runs batches until secs have passed (at least one batch). Each
// batch's host time is kept and lowers its ops' floors; in the phase it
// gives one latency sample, its host time divided by its ops.
func (r *run) measure(secs float64, batch batchFn, acc *layerAcc, parent uint64) (phase, error) {
	var p phase
	start := time.Now()
	for time.Since(start).Seconds() < secs || p.ops == 0 {
		sp := r.rec.start("bench", "batch", 0, parent, 0)
		out, err := batch(acc, false, sp.id())
		d := sp.end()
		if acc != nil {
			acc.batchNs += int64(d)
		}
		r.attempt(out.ops)
		if err != nil {
			return p, err
		}
		r.checkWork(out)
		r.batchSecs = append(r.batchSecs, d.Seconds())
		r.floor = lowerFloor(r.floor, out.lat)
		at := time.Since(start)
		p.lat = append(p.lat, stamp{at, usf(d) / float64(out.ops)})
		p.add(event{at, out.ops, out.insts})
		r.mem.sample()
	}
	p.wall = time.Since(start)
	return p, nil
}

// checkWork checks that a batch did the same simulated work as the
// workload's first: the fastest batches are the calm ones, and an op's
// floor its calm cost, only if every batch has the same work to do.
func (r *run) checkWork(out batchOut) {
	switch {
	case r.batchOps == 0:
		r.batchOps, r.batchInsts = out.ops, out.insts
	case out.ops != r.batchOps || out.insts != r.batchInsts:
		r.problem(out.ops, "batch of %d ops retired %d simulated instructions, the first batch of %d ops %d",
			out.ops, out.insts, r.batchOps, r.batchInsts)
	}
}

// endToEnd returns a segment's measurement for a batch workload: batches
// for secs.
func (r *run) endToEnd(batch batchFn) func(secs float64) error {
	return func(secs float64) error {
		_, err := r.measure(secs, batch, nil, 0)
		return err
	}
}

// obsPairs runs once in pairs, once with the simulator's own event
// tracer attached and once without, alternating which goes first, for
// secs; it returns the median traced/untraced time ratio as a percentage
// overhead and the number of pairs. Pairing cancels host-load drift
// between the two halves.
func obsPairs(secs float64, once func(traced bool) error) (float64, int, error) {
	var ratios []float64
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < secs || len(ratios) == 0; i++ {
		var d [2]time.Duration // traced, untraced
		for k := 0; k < 2; k++ {
			traced := (k+i)%2 == 0
			t0 := time.Now()
			if err := once(traced); err != nil {
				return 0, 0, err
			}
			if traced {
				d[0] = time.Since(t0)
			} else {
				d[1] = time.Since(t0)
			}
		}
		ratios = append(ratios, float64(d[0])/float64(d[1]))
	}
	return 100 * (median(ratios) - 1), len(ratios), nil
}

// segments is how many times an untraced run sets up: the run is split
// into this many segments, each measured on the state its own set-up
// left, so that set-ups, like ops, are spread over the whole run.
const segments = 10

// segmented is an untraced run: segments times a timed set-up, then
// measure for an equal share of the run's seconds, then discard (nil
// when there is nothing to release). It reports every end-to-end metric.
func (r *run) segmented(setup func() error, measure func(secs float64) error, discard func() error) error {
	var ts []float64
	for i := 0; i < segments; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		err := measure(r.seconds / segments)
		if discard != nil {
			if derr := discard(); err == nil {
				err = derr
			}
		}
		if err != nil {
			return err
		}
	}
	calm := lowest(ts, fastShare)
	r.set("setup_s", median(calm), len(calm), ts)
	if len(r.batchSecs) > 0 {
		r.batchMetrics()
	} else {
		lat := calmLatency(r.latWin)
		if p := tailPct(len(lat), 99); p < 99 {
			fmt.Fprintf(r.stderr, "bench: %s: only %d samples; op_p99_us reports p%g\n", r.workload, len(lat), p)
		}
		r.set("op_p50_us", median(lat), len(lat), lat)
		r.set("op_p99_us", tail(lat), len(lat), lat)
		ops, insts, n := fastRates(r.rateWin)
		r.set("ops_per_s", ops, n, windowRates(r.rateWin))
		r.set("sim_mips", insts/1e6, n, nil)
	}
	heap := r.mem.samples()
	r.set("mem_heap_mb", median(heap), len(heap), heap)
	return nil
}

// batchMetrics sets a batch workload's latency and throughput metrics:
// the median and 99th percentile over a batch's ops of their floors, and
// ops and simulated instructions per second over the fastest batches.
// The floors are as many as a batch has distinct ops, each the least of
// thousands of samples, so the 99th percentile is read off them directly.
func (r *run) batchMetrics() {
	floors := append([]float64(nil), r.floor...)
	sort.Float64s(floors)
	r.set("op_p50_us", percentile(floors, 50), len(floors), floors)
	r.set("op_p99_us", percentile(floors, 99), len(floors), floors)
	fast := lowest(r.batchSecs, fastBatches)
	secs := sum(fast)
	rates := make([]float64, len(r.batchSecs))
	for i, s := range r.batchSecs {
		rates[i] = float64(r.batchOps) / s
	}
	n := float64(len(fast))
	r.set("ops_per_s", n*float64(r.batchOps)/secs, len(fast), rates)
	r.set("sim_mips", n*float64(r.batchInsts)/secs/1e6, len(fast), nil)
}

// Shares of a traced run's time: an untraced baseline, paired obs
// batches, the timed phase the per-layer numbers come from, the no-op
// service phase and the composed fig9 points. The fixed-size probes come
// on top.
const (
	tracedBaseline = 0.3
	tracedObs      = 0.12
	tracedTimed    = 0.45
	tracedNoop     = 0.08
	tracedReplica  = 0.05
)

// tracedBatches is the traced run of a batch workload: baseline, obs
// pairs and the timed phase, reporting obs, bench and Go runtime
// overheads. acc receives the timed phase's per-layer timers.
func (r *run) tracedBatches(batch batchFn, acc *layerAcc) (phase, error) {
	root := r.rec.start("bench", "measure", 0, 0, 0)
	defer root.end()
	base, err := r.measure(tracedBaseline*r.seconds, batch, nil, root.id())
	if err != nil {
		return base, err
	}
	overhead, pairs, err := obsPairs(tracedObs*r.seconds, func(traced bool) error {
		out, err := batch(nil, traced, 0)
		r.attempt(out.ops)
		return err
	})
	if err != nil {
		return base, err
	}
	r.set("obs.trace_overhead_pct", overhead, pairs, nil)
	rt0 := readRuntime()
	timed, err := r.measure(tracedTimed*r.seconds, batch, acc, root.id())
	if err != nil {
		return timed, err
	}
	r.reportRuntime(rt0, readRuntime(), timed.ops)
	r.set("bench.trace_overhead_pct", 100*(median(timed.latencies())/median(base.latencies())-1), len(timed.lat), nil)
	return timed, nil
}
