package engine_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

func boot(t *testing.T, ncpu int, rerand bool) (*sim.Machine, uint64) {
	t.Helper()
	m, err := sim.NewMachine(sim.Config{NumCPUs: ncpu, Seed: 42, KASLR: kernel.KASLRFull64})
	if err != nil {
		t.Fatal(err)
	}
	o := drivers.BuildOpts{PIC: true, Retpoline: true}
	if rerand {
		o.Rerand, o.StackRerand, o.RetEncrypt = true, true, true
	}
	if _, err := m.LoadDriver("dummy", o); err != nil {
		t.Fatal(err)
	}
	va, ok := m.K.Symbol("dummy_ioctl")
	if !ok {
		t.Fatal("dummy_ioctl not exported")
	}
	return m, va
}

// TestParallelLanesAccrueBusyCycles is the headline property of the
// engine: with Workers > 1, every lane's vCPU interprets its own
// operations (the seed executed everything on vCPU 0 and modeled the
// rest analytically). Lanes run one after another on the caller's
// goroutine; each keeps its own vCPU state because that is the
// simulated SMP machine the figures measure.
func TestParallelLanesAccrueBusyCycles(t *testing.T) {
	const ncpu = 8
	m, va := boot(t, ncpu, false)
	res, err := m.Run(sim.RunConfig{Ops: 64, Workers: ncpu, SyscallCycles: 100},
		func(c *cpu.CPU) (uint64, error) {
			_, err := c.Call(va, 0)
			return 0, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lanes != ncpu {
		t.Fatalf("lanes = %d, want %d", res.Lanes, ncpu)
	}
	for i := 0; i < ncpu; i++ {
		if m.K.CPU(i).Cycles == 0 {
			t.Errorf("vCPU %d accrued no busy cycles", i)
		}
		if m.K.CPU(i).Insts == 0 {
			t.Errorf("vCPU %d retired no instructions", i)
		}
	}
	// All interpreted work is accounted: the sum over vCPUs matches the
	// result's interpreted share (BusyCycles also includes the per-op
	// syscall charge, which is not executed on a vCPU).
	var sum uint64
	for i := 0; i < ncpu; i++ {
		sum += m.K.CPU(i).Cycles
	}
	if want := res.BusyCycles - 64*100; sum != want {
		t.Fatalf("vCPU cycle sum %d != interpreted busy %d", sum, want)
	}
}

// TestLanesCappedByCPUs: the physical lane count is bounded by the
// machine's cores even when the modeled worker population is larger.
func TestLanesCappedByCPUs(t *testing.T) {
	m, va := boot(t, 4, false)
	res, err := m.Run(sim.RunConfig{Ops: 40, Workers: 100},
		func(c *cpu.CPU) (uint64, error) {
			_, err := c.Call(va, 0)
			return 0, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lanes != 4 {
		t.Fatalf("lanes = %d, want 4", res.Lanes)
	}
}

// TestSingleWorkerStaysOnOneVCPU: the Workers=1 microbenchmarks must
// keep their single-lane cost profile — every op on vCPU 0, one
// TLB/decode-cache warmup.
func TestSingleWorkerStaysOnOneVCPU(t *testing.T) {
	m, va := boot(t, 4, false)
	if _, err := m.Run(sim.RunConfig{Ops: 20, Workers: 1},
		func(c *cpu.CPU) (uint64, error) {
			_, err := c.Call(va, 0)
			return 0, err
		}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if m.K.CPU(i).Cycles != 0 {
			t.Fatalf("vCPU %d ran with Workers=1", i)
		}
	}
}

// TestParallelRunDeterministic: two identical machines, eight lanes,
// re-randomization on — results must be bit-identical, in aggregate and
// per vCPU. This is the engine's determinism contract: lanes and
// clocked actors interleave in a fixed order at round barriers.
func TestParallelRunDeterministic(t *testing.T) {
	results := make([]sim.RunResult, 2)
	perCPU := make([][]uint64, 2)
	for i := range results {
		m, va := boot(t, 8, true)
		res, err := m.Run(sim.RunConfig{Ops: 400, Workers: 8, RerandPeriodUs: 20, SyscallCycles: 2000},
			func(c *cpu.CPU) (uint64, error) {
				_, err := c.Call(va, 0)
				return 0, err
			})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		cycles := make([]uint64, 8)
		for j := 0; j < 8; j++ {
			cycles[j] = m.K.CPU(j).Cycles
		}
		perCPU[i] = cycles
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("parallel run not deterministic:\n%+v\n%+v", results[0], results[1])
	}
	for j := 0; j < 8; j++ {
		if perCPU[0][j] != perCPU[1][j] {
			t.Fatalf("vCPU %d cycles differ across runs: %d vs %d", j, perCPU[0][j], perCPU[1][j])
		}
	}
	if results[0].RerandSteps == 0 {
		t.Fatal("re-randomizer actor never fired")
	}
}

// TestOpErrorReportsOpIndex: a failing op is attributed to its
// deterministic op index, not a lane-scheduling-dependent one.
func TestOpErrorReportsOpIndex(t *testing.T) {
	m, va := boot(t, 4, false)
	_, err := m.Run(sim.RunConfig{Ops: 16, Workers: 4},
		func(c *cpu.CPU) (uint64, error) {
			if c.ID == 2 { // lane 2 fails on its first op, global index 2
				return 0, errLane2
			}
			_, err := c.Call(va, 0)
			return 0, err
		})
	if err == nil {
		t.Fatal("expected op error")
	}
	if !strings.Contains(err.Error(), "op 2") {
		t.Fatalf("error not attributed to op 2: %v", err)
	}
}

var errLane2 = errors.New("injected lane-2 failure")

// TestRunStartsNoGoroutine: a machine's lanes run on the caller's
// goroutine, so while an op runs, the caller's is the only goroutine
// with an engine frame on its stack. (A count of all goroutines would
// also see the runtime's and the test runner's come and go.)
func TestRunStartsNoGoroutine(t *testing.T) {
	m, va := boot(t, 4, false)
	var seen []int
	buf := make([]byte, 1<<20)
	if _, err := m.Run(sim.RunConfig{Ops: 16, Workers: 4},
		func(c *cpu.CPU) (uint64, error) {
			seen = append(seen, engineGoroutines(buf))
			_, err := c.Call(va, 0)
			return 0, err
		}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 16 {
		t.Fatalf("ran %d ops, want 16", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("op %d saw %d goroutines in engine code, want 1 (the caller's)", i, n)
		}
	}
}

// engineGoroutines counts the goroutines whose stacks hold a frame of
// package engine, using buf for the dump of every stack.
func engineGoroutines(buf []byte) int {
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "adelie/internal/engine.") {
			n++
		}
	}
	return n
}

// TestLanePanicReachesCaller: a panic in any lane's op unwinds through
// Run into the caller, where it can be recovered.
func TestLanePanicReachesCaller(t *testing.T) {
	m, va := boot(t, 4, false)
	defer func() {
		if r := recover(); r != errLane1 {
			t.Fatalf("recovered %v, want %v", r, errLane1)
		}
	}()
	_, _ = m.Run(sim.RunConfig{Ops: 8, Workers: 2},
		func(c *cpu.CPU) (uint64, error) {
			if c.ID == 1 {
				panic(errLane1)
			}
			_, err := c.Call(va, 0)
			return 0, err
		})
	t.Fatal("Run returned after a lane panicked")
}

var errLane1 = errors.New("injected lane-1 panic")
