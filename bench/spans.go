package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adelie/internal/cpu"
	"adelie/internal/sim"
)

// span is one timed call into a layer, recorded by a traced run. Parent
// is the enclosing span on the same goroutine; Cause is the span whose
// work this one serves when that ran elsewhere (a service request for
// the experiment run it triggered).
type span struct {
	ID, Parent, Cause uint64
	Name, Cat         string
	Tid               int
	Start, Dur        time.Duration // Start is relative to the recorder's origin
}

// recorder keeps a traced run's spans in memory and writes them out as
// Chrome trace_event JSON when the run ends. Hot-path timers (cpu.Call)
// do not make spans: they aggregate into hists.
type recorder struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span
	hists map[string]*hist
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), hists: map[string]*hist{}}
}

// openSpan is a started span; end records it.
type openSpan struct {
	rec   *recorder
	s     span
	begin time.Time
}

// start opens a span. A nil recorder returns a span that only times.
func (r *recorder) start(cat, name string, tid int, parent, cause uint64) *openSpan {
	o := &openSpan{rec: r, begin: time.Now()}
	if r != nil {
		o.s = span{ID: r.ids.Add(1), Parent: parent, Cause: cause, Name: name, Cat: cat, Tid: tid}
	}
	return o
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	d := time.Since(o.begin)
	if r := o.rec; r != nil {
		o.s.Start, o.s.Dur = o.begin.Sub(r.origin), d
		r.mu.Lock()
		r.spans = append(r.spans, o.s)
		r.mu.Unlock()
	}
	return d
}

// id is the span's ID (0 for an untraced span).
func (o *openSpan) id() uint64 { return o.s.ID }

// add records a span timed elsewhere and returns its ID (0 on a nil
// recorder).
func (r *recorder) add(cat, name string, tid int, parent, cause uint64, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	s := span{ID: r.ids.Add(1), Parent: parent, Cause: cause, Name: name, Cat: cat, Tid: tid,
		Start: start.Sub(r.origin), Dur: end.Sub(start)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// addHist merges a hot-path histogram into the recorder under name.
func (r *recorder) addHist(name string, h *hist) {
	if r == nil || h.n == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists[name] == nil {
		r.hists[name] = &hist{}
	}
	r.hists[name].merge(h)
}

// writeChrome writes the spans and histograms as Chrome trace_event JSON
// (timestamps in host microseconds), loadable in Perfetto or
// chrome://tracing.
func (r *recorder) writeChrome(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	sort.Strings(names)

	fmt.Fprintf(w, "{\"otherData\":{\"workload\":%q,\"seed\":%d,\"clock\":\"host\"},\"traceEvents\":[", workload, seed)
	sep := "\n"
	var last time.Duration
	for _, s := range spans {
		fmt.Fprintf(w, "%s{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"cause\":%d}}",
			sep, s.Name, s.Cat, s.Tid, usf(s.Start), usf(s.Dur), s.ID, s.Parent, s.Cause)
		sep = ",\n"
		if e := s.Start + s.Dur; e > last {
			last = e
		}
	}
	for _, n := range names {
		h := r.hists[n]
		fmt.Fprintf(w, "%s{\"name\":%q,\"cat\":\"hist\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{\"n\":%d,\"mean_ns\":%.1f",
			sep, n, usf(last), h.n, float64(h.totalNs)/float64(h.n))
		for b, c := range h.buckets {
			if c > 0 {
				fmt.Fprintf(w, ",\"lt_%dns\":%d", uint64(1)<<(b+1), c)
			}
		}
		w.WriteString("}}")
		sep = ",\n"
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// hist is a log2-bucketed histogram of durations: bucket b counts
// durations in [2^b, 2^(b+1)) ns.
type hist struct {
	n, totalNs int64
	buckets    [40]int64
}

func (h *hist) add(ns int64) {
	h.n++
	h.totalNs += ns
	b := 0
	if ns > 0 {
		b = bits.Len64(uint64(ns)) - 1
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.totalNs += o.totalNs
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// maxLanes bounds the vCPU IDs lane timers index; the testbed has 20.
const maxLanes = 20

// laneTimer is one vCPU's share of the timers: op-closure time, the
// instructions retired inside op closures, and a cpu.Call histogram.
type laneTimer struct {
	ops, opNs int64
	opInsts   uint64
	call      hist
}

// laneTimers times op closures and cpu.CPU.Call per vCPU without locks:
// engine lanes run concurrently and each touches only its own slot.
type laneTimers struct {
	lane [maxLanes]laneTimer
}

// wrap returns op with its host time and retired instructions recorded
// on the lane's slot. A nil receiver returns op unchanged.
func (lt *laneTimers) wrap(op sim.OpFunc) sim.OpFunc {
	if lt == nil {
		return op
	}
	return func(c *cpu.CPU) (uint64, error) {
		l := &lt.lane[c.ID]
		insts := c.Insts
		t0 := time.Now()
		wait, err := op(c)
		l.opNs += int64(time.Since(t0))
		l.ops++
		l.opInsts += c.Insts - insts
		return wait, err
	}
}

// call invokes c.Call, timing it when lt is non-nil.
func (lt *laneTimers) call(c *cpu.CPU, va uint64, args ...uint64) (uint64, error) {
	if lt == nil {
		return c.Call(va, args...)
	}
	t0 := time.Now()
	ret, err := c.Call(va, args...)
	lt.lane[c.ID].call.add(int64(time.Since(t0)))
	return ret, err
}
