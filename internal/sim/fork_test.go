package sim_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

func TestForkRequiresSnapshot(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Fork(); err == nil {
		t.Fatal("fork of an unfrozen machine accepted")
	}
}

func TestSnapshotFreezesMachine(t *testing.T) {
	m := newMachine(t)
	loadDummy(t, m, false)
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if !m.Frozen() {
		t.Fatal("machine not frozen after snapshot")
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("snapshot not idempotent: %v", err)
	}
	if _, err := m.Call("dummy_ioctl", 0); err == nil {
		t.Fatal("frozen machine accepted Call")
	}
	if _, err := m.Run(sim.RunConfig{Ops: 1, Workers: 1}, func(c *cpu.CPU) (uint64, error) {
		return 0, nil
	}); err == nil {
		t.Fatal("frozen machine accepted Run")
	}
}

// TestReleasedMachineRefusesUse: a released machine's frame records may
// already serve another machine, so every entry point that would run or
// copy it fails. A fork taken before its template's release runs on.
func TestReleasedMachineRefusesUse(t *testing.T) {
	op := func(c *cpu.CPU) (uint64, error) { return 0, nil }
	m := newMachine(t)
	loadDummy(t, m, false)
	m.Release()
	if err := m.Snapshot(); err == nil {
		t.Fatal("released machine accepted Snapshot")
	}
	if _, err := m.Run(sim.RunConfig{Ops: 1, Workers: 1}, op); err == nil {
		t.Fatal("released machine accepted Run")
	}
	if _, err := m.Call("dummy_ioctl", 0); err == nil {
		t.Fatal("released machine accepted Call")
	}

	tmpl := newMachine(t)
	loadDummy(t, tmpl, false)
	if err := tmpl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Release()
	if _, err := tmpl.Fork(); err == nil {
		t.Fatal("released template accepted Fork")
	}
	if _, err := f.Call("dummy_ioctl", 0); err != nil {
		t.Fatalf("fork of a released template: %v", err)
	}
	if err := f.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f.Release()
	if _, err := f.Fork(); err == nil {
		t.Fatal("released fork accepted Fork")
	}
	if _, err := f.Run(sim.RunConfig{Ops: 1, Workers: 1}, op); err == nil {
		t.Fatal("released fork accepted Run")
	}
}

func TestForkRunMatchesColdBoot(t *testing.T) {
	// A fork must produce bit-identical results to a cold-booted machine
	// of the same configuration — the fork-determinism contract the
	// parallel sweep runner relies on.
	cfg := sim.RunConfig{Ops: 300, Workers: 4, RerandPeriodUs: 500, SyscallCycles: 2000}
	boot := func() *sim.Machine {
		m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: 5, KASLR: kernel.KASLRFull64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadDriver("dummy", drivers.BuildOpts{PIC: true, Rerand: true, RetEncrypt: true}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *sim.Machine) sim.RunResult {
		va, _ := m.K.Symbol("dummy_ioctl")
		res, err := m.Run(cfg, func(c *cpu.CPU) (uint64, error) {
			_, err := c.Call(va, 0)
			return 0, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cold := run(boot())

	tmpl := boot()
	if err := tmpl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f1, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := run(f1), run(f2)
	if !reflect.DeepEqual(r1, cold) {
		t.Fatalf("fork diverges from cold boot:\nfork: %+v\ncold: %+v", r1, cold)
	}
	if !reflect.DeepEqual(r2, cold) {
		t.Fatalf("second fork diverges from cold boot:\nfork: %+v\ncold: %+v", r2, cold)
	}
	f1.Release()
	f2.Release()
}

func TestForkDriverStateIndependent(t *testing.T) {
	// Each fork gets its own devices and modules: running one fork must
	// not advance the template's or a sibling's counters.
	tmpl := newMachine(t)
	loadDummy(t, tmpl, true)
	if err := tmpl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f1, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f1.Module("dummy") == tmpl.Module("dummy") || f1.Module("dummy") == f2.Module("dummy") {
		t.Fatal("forks share module bookkeeping")
	}
	if f1.NVMe == tmpl.NVMe || f1.NIC == f2.NIC {
		t.Fatal("forks share devices")
	}
	va, _ := f1.K.Symbol("dummy_ioctl")
	if _, err := f1.Run(sim.RunConfig{Ops: 100, Workers: 2, RerandPeriodUs: 100, SyscallCycles: 100_000},
		func(c *cpu.CPU) (uint64, error) {
			_, err := c.Call(va, 0)
			return 0, err
		}); err != nil {
		t.Fatal(err)
	}
	if f1.Module("dummy").Rerandomizations == 0 {
		t.Fatal("fork's re-randomizer never moved its module")
	}
	if got := tmpl.Module("dummy").Rerandomizations; got != 0 {
		t.Fatalf("template module moved %d times by a fork's run", got)
	}
	if got := f2.Module("dummy").Rerandomizations; got != 0 {
		t.Fatalf("sibling module moved %d times by another fork's run", got)
	}
	f1.Release()
	f2.Release()
}

func TestConcurrentForksCloneOnFirstUse(t *testing.T) {
	// Forks of one template, taken and run concurrently, each clone the
	// template's module on their first re-randomization step and reach
	// their own stack pool through the shared native table. Run under
	// -race; every fork must match the others.
	tmpl := newMachine(t)
	loadDummy(t, tmpl, true)
	if err := tmpl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	va, _ := tmpl.K.Symbol("dummy_ioctl")
	const n = 4
	var (
		wg   sync.WaitGroup
		res  [n]sim.RunResult
		errs [n]error
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := tmpl.Fork()
			if err != nil {
				errs[g] = err
				return
			}
			defer f.Release()
			res[g], errs[g] = f.Run(sim.RunConfig{Ops: 200, Workers: 2, RerandPeriodUs: 50, SyscallCycles: 1000},
				func(c *cpu.CPU) (uint64, error) {
					_, err := c.Call(va, 0)
					return 0, err
				})
			if errs[g] == nil && f.Module("dummy").Rerandomizations == 0 {
				t.Errorf("fork %d never moved its module", g)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(res[g], res[0]) {
			t.Fatalf("fork %d diverges from fork 0:\n%+v\n%+v", g, res[g], res[0])
		}
	}
	if got := tmpl.Module("dummy").Rerandomizations; got != 0 {
		t.Fatalf("template module moved %d times", got)
	}
}

func TestForkLatency(t *testing.T) {
	// Forking is orders of magnitude cheaper than booting. Host fork
	// time is measured by the repository benchmark (bench/, sim.fork_us);
	// here we only guard against gross regression.
	tmpl := newMachine(t)
	loadDummy(t, tmpl, true)
	if err := tmpl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		f, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	per := time.Since(start) / n
	t.Logf("fork+release latency: %v", per)
	if per > 50*time.Millisecond {
		t.Fatalf("fork latency %v, want well under boot cost", per)
	}
}

// BenchmarkFork measures the fork layer alone: one Fork plus Release of
// the Fig. 9 machine shape (20 vCPUs, re-randomizable dummy driver with
// stack re-randomization), the shape the sweep and service forks take.
func BenchmarkFork(b *testing.B) {
	m := newMachine(b)
	loadDummy(b, m, true)
	if err := m.Snapshot(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := m.Fork()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// BenchmarkForkFirstCall is BenchmarkFork plus one dummy_ioctl call on
// vCPU 0 of each fork: the fork-time cost together with what the fork
// defers to first use (cloning vCPU 0 and its TLB, copying the slot
// chunks that TLB and the call touch, detaching the pages the call
// writes).
func BenchmarkForkFirstCall(b *testing.B) {
	m := newMachine(b)
	loadDummy(b, m, true)
	if err := m.Snapshot(); err != nil {
		b.Fatal(err)
	}
	va, ok := m.K.Symbol("dummy_ioctl")
	if !ok {
		b.Fatal("dummy_ioctl not exported")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := m.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.K.CPU(0).Call(va, 0); err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}
