package workload

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"adelie/internal/obs"
	"adelie/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from current output")

// serverTestRun is the shared harness: one server configuration plus
// its delivery trace (see isrTrace).
func serverTestRun(t *testing.T, queues, workers, ops int) (ServerRow, sim.RunResult, []string) {
	t.Helper()
	var (
		row ServerRow
		res sim.RunResult
		err error
	)
	trace := tracedISR(t, func() { row, res, err = serverRun(seedServer, queues, workers, ops, 1000) })
	if err != nil {
		t.Fatal(err)
	}
	return row, res, trace
}

// tracedISR is tracedISRs for a run that provides exactly one machine.
func tracedISR(t *testing.T, fn func()) []string {
	t.Helper()
	traces := tracedISRs(fn)
	if len(traces) != 1 {
		t.Fatalf("run traced %d machines, want 1", len(traces))
	}
	return traces[0]
}

// tracedISRs runs fn inside a trace session and returns the delivery
// trace of every machine it provided, in boot order.
func tracedISRs(fn func()) [][]string {
	sess, end := BeginObs(true, false)
	defer end()
	fn()
	var out [][]string
	for _, tr := range sess.Trace.Machines() {
		out = append(out, isrTrace(tr))
	}
	return out
}

// isrTrace renders a machine's traced ISR spans in trace order, one
// line>vcpu@cycle+cycles:handled entry per delivered interrupt.
func isrTrace(tr *obs.Tracer) []string {
	var trace []string
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindISR {
			trace = append(trace, fmt.Sprintf("%d>%d@%d+%d:%d", ev.Args[0].U, ev.Track, ev.Clk, ev.Dur, ev.Args[2].U))
		}
	}
	return trace
}

// TestServerCrossVCPUDeterminism is the tentpole's determinism
// contract: with RSS spreading RX vectors across vCPUs (and the NVMe
// completion vector pinned alongside them), repeated runs must produce
// identical RunResults — including the per-lane IRQ breakdown — and an
// identical (line, vcpu, cycle) delivery trace, while interrupts
// demonstrably arrive on multiple distinct vCPUs.
func TestServerCrossVCPUDeterminism(t *testing.T) {
	for _, queues := range []int{2, 4} {
		queues := queues
		t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
			rowA, resA, traceA := serverTestRun(t, queues, 4, 48)
			rowB, resB, traceB := serverTestRun(t, queues, 4, 48)
			if rowA != rowB || !reflect.DeepEqual(resA, resB) {
				t.Fatalf("server run not deterministic:\n%+v %+v\n%+v %+v", rowA, resA, rowB, resB)
			}
			if strings.Join(traceA, ",") != strings.Join(traceB, ",") {
				t.Fatalf("delivery trace differs:\n%v\n%v", traceA, traceB)
			}
			if resA.IRQVCPUs() != queues {
				t.Fatalf("IRQs delivered on %d vCPUs, want %d (per-lane %v)",
					resA.IRQVCPUs(), queues, resA.IRQsPerLane)
			}
			var sum uint64
			for _, c := range resA.IRQsPerLane {
				sum += c
			}
			if sum != resA.IRQs || resA.IRQs == 0 {
				t.Fatalf("per-lane IRQ counts %v don't sum to aggregate %d", resA.IRQsPerLane, resA.IRQs)
			}
		})
	}
}

// TestServerRoundAllocBudget bounds the heap allocations a server
// request adds: runs of 500 and 1,000 requests on forks of one 2-queue
// rerand+stack template differ only in request count, so their
// allocation difference per extra request is the request path's own
// cost — the op, its IRQ window and NVMe/NIC DMA, the load generator
// and rerand steps. The path measures about 2.3; allocating again in
// Read64Force, the NVMe read DMA or TakePending's sort takes it past
// the budget.
func TestServerRoundAllocBudget(t *testing.T) {
	EnableForkPool()
	defer DisableForkPool()
	allocs := func(ops int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := serverRun(seedServer, 2, 2, ops, 1000); err != nil {
				t.Fatal(err)
			}
		})
	}
	a500, a1000 := allocs(500), allocs(1000)
	perReq := (a1000 - a500) / 500
	t.Logf("allocations per run: %.0f at 500 requests, %.0f at 1,000: %.2f per extra request", a500, a1000, perReq)
	const budget = 3
	if perReq > budget {
		t.Fatalf("a server request allocates %.2f times, budget %d", perReq, budget)
	}
}

// TestServerSingleQueueOnVCPU0: one queue with default affinity is the
// legacy delivery shape — every interrupt (NIC vector and NVMe
// completion alike) lands on vCPU 0.
func TestServerSingleQueueOnVCPU0(t *testing.T) {
	_, res, trace := serverTestRun(t, 1, 4, 48)
	if res.IRQVCPUs() != 1 || res.IRQs == 0 {
		t.Fatalf("single-queue spread = %d vCPUs (per-lane %v)", res.IRQVCPUs(), res.IRQsPerLane)
	}
	if res.IRQsPerLane[0] != res.IRQs {
		t.Fatalf("single-queue IRQs not all on vCPU 0: %v", res.IRQsPerLane)
	}
	for _, d := range trace {
		if !strings.Contains(d, ">0@") {
			t.Fatalf("delivery off vCPU 0 in single-queue mode: %v", trace)
		}
	}
}

// TestServerForkPoolMatchesColdBoot extends the fork-determinism
// contract to the multi-queue machine shape: a server run on a
// copy-on-write fork must be bit-identical — row, RunResult, delivery
// trace — to one on a cold-booted machine.
func TestServerForkPoolMatchesColdBoot(t *testing.T) {
	rowCold, resCold, traceCold := serverTestRun(t, 4, 4, 48)
	EnableForkPool()
	defer DisableForkPool()
	// Two forked runs: the first boots and freezes the template, both
	// must match the cold boot.
	for i := 0; i < 2; i++ {
		rowF, resF, traceF := serverTestRun(t, 4, 4, 48)
		if rowCold != rowF || !reflect.DeepEqual(resCold, resF) {
			t.Fatalf("fork %d diverges from cold boot:\n%+v %+v\n%+v %+v", i, rowCold, resCold, rowF, resF)
		}
		if strings.Join(traceCold, ",") != strings.Join(traceF, ",") {
			t.Fatalf("fork %d delivery trace diverges:\n%v\n%v", i, traceCold, traceF)
		}
	}
}

// TestServerForksConcurrentMatchSerial forks one server template
// (e1000emq, nvme, nvmeirq) from 8 goroutines, each fork serving
// requests with device DMA through its own translation caches while the
// others fork and run. Every fork must match a serial cold-boot run —
// row, RunResult and delivery trace — and the test must stay clean
// under -race: it is the check that one machine's host state is
// reached only from the goroutine driving it. The forks share one trace
// session, each tracing into its own trace process.
func TestServerForksConcurrentMatchSerial(t *testing.T) {
	const n = 8
	row, res, trace := serverTestRun(t, 2, 2, 400)
	EnableForkPool()
	defer DisableForkPool()
	before := ForkPoolStats()
	type out struct {
		row ServerRow
		res sim.RunResult
		err error
	}
	outs := make([]out, n)
	traces := tracedISRs(func() {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(o *out) {
				defer wg.Done()
				o.row, o.res, o.err = serverRun(seedServer, 2, 2, 400, 1000)
			}(&outs[g])
		}
		wg.Wait()
	})
	for g, o := range outs {
		if o.err != nil {
			t.Fatalf("goroutine %d: %v", g, o.err)
		}
		if o.row != row || !reflect.DeepEqual(o.res, res) {
			t.Fatalf("goroutine %d diverges from the serial run:\n%+v %+v\n%+v %+v", g, row, res, o.row, o.res)
		}
	}
	if len(traces) != n {
		t.Fatalf("%d forks traced, want %d", len(traces), n)
	}
	for i, tr := range traces {
		if !slices.Equal(tr, trace) {
			t.Fatalf("fork trace %d diverges from the serial run:\n%v\n%v", i, trace, tr)
		}
	}
	if st := ForkPoolStats(); st.Templates-before.Templates != 1 || st.Forks-before.Forks != n || st.ColdBoots != before.ColdBoots {
		t.Fatalf("pool served %d templates, %d forks, %d cold boots; want 1, %d, 0",
			st.Templates-before.Templates, st.Forks-before.Forks, st.ColdBoots-before.ColdBoots, n)
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// when the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", name), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	diffGolden(t, name, got)
}

// diffGolden fails t at the first line where got differs from
// testdata/name. It never rewrites the file: a check that must agree
// with a golden another test owns uses it directly.
func diffGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	at := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end of output)"
	}
	t.Fatalf("output drifted from %s at line %d:\n want: %s\n  got: %s", golden, i+1, at(wl), at(gl))
}
