package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.Median != 500.5 || s.Q1 != 250.75 || s.Q3 != 750.25 {
		t.Errorf("summary %+v", s)
	}
	if s.TailP != 99 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("tail p%v = %v, want p99 = 990.01", s.TailP, s.Tail)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 98}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {5, 50}} {
		if got := tailPct(c.n, 100); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPct(c.n, 100); c.n >= 20 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	if got := tailPct(100000, 99); got != 99 {
		t.Errorf("tailPct capped at 99 = %v", got)
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("median of 3,1,2")
	}
}

const testWidth = 250 * time.Millisecond

// A phase of four whole windows whose ops get slower window by window,
// with a partial fifth window that must be dropped.
func slowingPhase(perWindow int) *phase {
	p := &phase{wall: 4*testWidth + testWidth/2}
	for w := 0; w < 5; w++ {
		for i := 0; i < perWindow; i++ {
			at := time.Duration(w)*testWidth + testWidth*time.Duration(i)/time.Duration(perWindow)
			p.lat = append(p.lat, stamp{at, float64(10 * (w + 1))})
			p.add(event{at, 4 - w, 100})
		}
	}
	return p
}

func TestWindows(t *testing.T) {
	ws := slowingPhase(300).windows(testWidth)
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4 whole ones", len(ws))
	}
	for w, win := range ws {
		if len(win.lat) != 300 || win.ops != 300*(4-w) || win.insts != 300*100 || win.width != testWidth {
			t.Errorf("window %d: %d samples, %d ops, %d insts, width %v", w, len(win.lat), win.ops, win.insts, win.width)
		}
	}
	// 1,200 samples: the calm pool keeps at least minCalm, so here every
	// window; with 1,000 samples a window, the calmest one alone.
	if pool := calmLatency(ws); len(pool) != 1200 || slices.Max(pool) != 40 {
		t.Errorf("calm pool of %d samples, max %v", len(pool), slices.Max(pool))
	}
	if pool := calmLatency(slowingPhase(1000).windows(testWidth)); len(pool) != 1000 || slices.Max(pool) != 10 {
		t.Errorf("calm pool of %d samples, max %v; want the calmest window alone", len(pool), slices.Max(pool))
	}
	ops, insts, n := fastRates(ws)
	if want := 1200 / testWidth.Seconds(); n != 1 || ops != want || insts != 300*100/testWidth.Seconds() {
		t.Errorf("fastest window: %v ops/s, %v insts/s over %d windows; want %v ops/s over 1", ops, insts, n, want)
	}
	short := phase{wall: testWidth / 2}
	short.add(event{testWidth / 2, 5, 0})
	if ws := short.windows(testWidth); len(ws) != 1 || ws[0].ops != 5 || ws[0].width != testWidth/2 {
		t.Errorf("short phase windows %+v, want one window of the whole phase", ws)
	}
}

// The calmest window is the one with the lowest mean: a window whose
// median is calm but whose tail ran slow ranks behind an evenly calm one.
func TestCalmWindowByMean(t *testing.T) {
	even := window{lat: make([]float64, 1000)}
	tailed := window{lat: make([]float64, 1000)}
	for i := range even.lat {
		even.lat[i], tailed.lat[i] = 12, 10
		if i%10 == 0 {
			tailed.lat[i] = 100
		}
	}
	if pool := calmLatency([]window{tailed, even}); slices.Max(pool) != 12 {
		t.Errorf("calm pool max %v, want the evenly calm window (max 12)", slices.Max(pool))
	}
}

// lowest keeps the smallest share, at least one; an op's floor is the
// least time it took in any batch.
func TestLowestAndFloors(t *testing.T) {
	var xs []float64
	for i := 200; i > 0; i-- {
		xs = append(xs, float64(i))
	}
	if got := lowest(xs, fastBatches); !slices.Equal(got, []float64{1, 2, 3, 4}) {
		t.Errorf("fastest 2%% of 200: %v, want 1..4", got)
	}
	if got := lowest(xs[:10], fastBatches); !slices.Equal(got, []float64{191}) {
		t.Errorf("fastest 2%% of 10: %v, want the one fastest", got)
	}
	if got := lowest([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, fastShare); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Errorf("fastest quarter: %v", got)
	}
	first := []float64{3, 9, 5}
	floor := lowerFloor(nil, first)
	first[0] = 0 // a batch's samples are reused by the next batch
	floor = lowerFloor(floor, []float64{4, 7, 6})
	if floor = lowerFloor(floor, []float64{8, 8, 2}); !slices.Equal(floor, []float64{3, 7, 2}) {
		t.Errorf("floors %v, want 3 7 2", floor)
	}
}

// A batch whose simulated work differs from the first's fails the run.
func TestCheckWork(t *testing.T) {
	r := &run{workload: "w", stderr: io.Discard}
	r.checkWork(batchOut{ops: 256, insts: 1000})
	r.checkWork(batchOut{ops: 256, insts: 1000})
	if !r.correct() {
		t.Error("equal batches flagged")
	}
	r.checkWork(batchOut{ops: 256, insts: 999})
	if r.correct() || r.failed != 256 {
		t.Errorf("a batch with other work: correct %v, failed %d", r.correct(), r.failed)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(7, 300, 10)
	if !slices.Equal(a, schedule(7, 300, 10)) {
		t.Fatal("same seed, different schedules")
	}
	if slices.Equal(a, schedule(8, 300, 10)) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 2999 || n > 3000 {
		t.Errorf("%d arrivals in 10 s at 300/s", n)
	}
	gap := time.Second / 300
	if a[0] < 0 || a[0] >= gap {
		t.Errorf("first arrival %v outside the first interval", a[0])
	}
	for i := 1; i < len(a); i++ {
		if d := a[i] - a[i-1]; d < gap-time.Microsecond || d > gap+time.Microsecond || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v, %v after the previous", i, a[i], d)
		}
	}
}

// A request that waits behind a stalled one is charged from its due
// time, so the stall shows in its latency; the generator itself is not
// held up by the stall.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	o := openLoop(sched, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if o.lat[0] < stall {
		t.Errorf("stalled request latency %v < %v", o.lat[0], stall)
	}
	for i := 1; i < len(sched); i++ {
		if want := stall - sched[i]; o.lat[i] < want {
			t.Errorf("request %d latency %v, want at least %v (queued behind the stall)", i, o.lat[i], want)
		}
		if o.late[i] > stall/2 {
			t.Errorf("generator %v late for request %d: it waited on the stall", o.late[i], i)
		}
		if o.sent[i].Sub(o.start) < stall {
			t.Errorf("request %d sent before the stalled request finished", i)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json declares exactly the metrics and workloads the program
// reports, with the same units and directions.
func TestDeclaredMetricsMatch(t *testing.T) {
	d := readDeclared(t)
	type m struct{ name, unit, better string }
	var declE2E, declLayer, progE2E, progLayer []m
	for _, e := range d.EndToEnd {
		declE2E = append(declE2E, m{e.Name, e.Unit, e.Better})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, e := range d.PerLayer {
		declLayer = append(declLayer, m{e.Name, e.Unit, e.Better})
	}
	for _, e := range endToEnd {
		progE2E = append(progE2E, m{e.Name, e.Unit, e.Better})
	}
	for _, e := range perLayer {
		progLayer = append(progLayer, m{e.Name, e.Unit, e.Better})
	}
	if !slices.Equal(declE2E, progE2E) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", declE2E, progE2E)
	}
	if !slices.Equal(declLayer, progLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", declLayer, progLayer)
	}
	seen := map[string]bool{}
	for _, e := range append(progE2E, progLayer...) {
		if !metricName.MatchString(e.name) || seen[e.name] {
			t.Errorf("metric name %q malformed or repeated", e.name)
		}
		seen[e.name] = true
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var prog []string
	for _, w := range workloads {
		prog = append(prog, w.name)
	}
	if !slices.Equal(names, prog) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, prog)
	}
}

// A short run of every workload, untraced and traced, prints every
// declared metric and a correct result line, and a traced run writes its
// trace and profile.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := benchMain([]string{"-seed", "1", "-seconds", "0.1", "-trace", trace, "-trace-dir", dir,
			"-json", filepath.Join(dir, "record.json")}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, errb.String())
		}
		defs := metricsFor(trace == "1")
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if want := len(workloads) * (len(defs) + 1); len(lines) != want {
			t.Fatalf("trace %s: %d output lines, want %d", trace, len(lines), want)
		}
		for i, w := range workloads {
			block := lines[i*(len(defs)+1) : (i+1)*(len(defs)+1)]
			for j, d := range defs {
				f := strings.Fields(block[j])
				if len(f) != 5 || f[0] != w.name || f[1] != d.Name || f[3] != d.Unit || !strings.HasPrefix(f[4], "n=") {
					t.Errorf("trace %s: line %q, want %s %s <value> %s n=<samples>", trace, block[j], w.name, d.Name, d.Unit)
				}
			}
			var res result
			if err := json.Unmarshal([]byte(block[len(defs)]), &res); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("trace %s %s: result %+v\n%s", trace, w.name, res, errb.String())
			}
			if trace == "1" {
				for _, f := range []string{"trace_" + w.name + ".json", "cpu_" + w.name + ".pprof"} {
					if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: %v", f, err)
					}
				}
				b, err := os.ReadFile(filepath.Join(dir, "trace_"+w.name+".json"))
				if err != nil || !json.Valid(b) {
					t.Errorf("trace_%s.json is not valid JSON: %v", w.name, err)
				}
			}
		}
		var rec record
		b, err := os.ReadFile(filepath.Join(dir, "record.json"))
		if err != nil || json.Unmarshal(b, &rec) != nil || len(rec.Workloads) != len(workloads) || rec.Host.NumCPU < 1 {
			t.Errorf("record.json: %v %s", err, b)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-workload", "nope"}, {"-seconds", "0"}, {"extra"}} {
		var out, errb bytes.Buffer
		if code := benchMain(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
