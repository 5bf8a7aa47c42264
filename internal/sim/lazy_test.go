package sim_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/mm"
	"adelie/internal/sim"
)

// A fork clones each vCPU on first use instead of at Fork. These tests
// pin the contract that makes this invisible: a fork whose vCPUs are
// all cloned at Fork ("eager") and one whose vCPUs clone when a run
// first touches them ("lazy") produce identical results and counters.

// lazyTemplate boots a 20-vCPU machine with a re-randomizable driver
// and the interrupt-completed NVMe path, warms vCPUs 0..3 (so their
// TLBs hold translations a later clone must re-resolve) and freezes it.
func lazyTemplate(t *testing.T) *sim.Machine {
	t.Helper()
	m := newMachine(t)
	loadDummy(t, m, true)
	for _, name := range []string{"nvme", "nvmeirq"} {
		if _, err := m.LoadDriver(name, drivers.BuildOpts{PIC: true, Retpoline: true}); err != nil {
			t.Fatal(err)
		}
	}
	runDummy(t, m, sim.RunConfig{Ops: 64, Workers: 4, SyscallCycles: 1000})
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return m
}

// forkPair returns an eager fork (every vCPU cloned right after Fork)
// and a lazy one of the same template.
func forkPair(t *testing.T, tmpl *sim.Machine) (eager, lazy *sim.Machine) {
	t.Helper()
	eager, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < eager.K.NumCPUs(); i++ {
		eager.K.CPU(i)
	}
	lazy, err = tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		eager.Release()
		lazy.Release()
	})
	return eager, lazy
}

func runDummy(t *testing.T, m *sim.Machine, cfg sim.RunConfig) sim.RunResult {
	t.Helper()
	va, ok := m.K.Symbol("dummy_ioctl")
	if !ok {
		t.Fatal("dummy_ioctl not exported")
	}
	res, err := m.Run(cfg, func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameVCPUs compares the architectural state and counters of every
// vCPU of two machines (materializing the lazy side's untouched ones).
func sameVCPUs(t *testing.T, want, got *sim.Machine) {
	t.Helper()
	for i := 0; i < want.K.NumCPUs(); i++ {
		w, g := want.K.CPU(i), got.K.CPU(i)
		wh, wm, wf := w.TLB.Stats()
		gh, gm, gf := g.TLB.Stats()
		if wh != gh || wm != gm || wf != gf {
			t.Errorf("vCPU %d TLB hits/misses/flushes: eager %d/%d/%d, lazy %d/%d/%d", i, wh, wm, wf, gh, gm, gf)
		}
		if w.Regs != g.Regs || w.RIP != g.RIP || w.Cycles != g.Cycles || w.Insts != g.Insts || w.Blocks != g.Blocks {
			t.Errorf("vCPU %d state: eager cycles %d insts %d, lazy cycles %d insts %d", i, w.Cycles, w.Insts, g.Cycles, g.Insts)
		}
	}
}

func TestLazyCPUMatchesEagerClone(t *testing.T) {
	tmpl := lazyTemplate(t)
	gen0 := tmpl.K.AS.Generation()
	for _, tc := range []struct {
		name     string
		periodUs float64 // re-randomization period of both runs; 0 = none
		genMoves bool    // whether the first run bumps the shootdown generation
	}{
		{"after rerand step", 20, true},
		{"after COW detaches", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eager, lazy := forkPair(t, tmpl)
			// Phase 1 runs on vCPU 0 only; vCPUs 1..3 of the lazy fork
			// stay unmaterialized while the address space moves on.
			cfg := sim.RunConfig{Ops: 120, Workers: 1, RerandPeriodUs: tc.periodUs, SyscallCycles: 1000}
			e1, l1 := runDummy(t, eager, cfg), runDummy(t, lazy, cfg)
			if !reflect.DeepEqual(e1, l1) {
				t.Fatalf("phase 1 diverges:\neager %+v\nlazy  %+v", e1, l1)
			}
			if moved := lazy.K.AS.Generation() != gen0; moved != tc.genMoves {
				t.Fatalf("generation moved = %v, want %v", moved, tc.genMoves)
			}
			if lazy.K.AS.Phys().COWDetaches() == 0 {
				t.Fatal("phase 1 detached no copy-on-write frames")
			}
			for i := 1; i < lazy.K.NumCPUs(); i++ {
				if lazy.K.LoadedCPU(i) != nil {
					t.Fatalf("vCPU %d materialized by a one-worker run", i)
				}
			}
			// Phase 2 first touches vCPUs 1..3.
			cfg.Workers = 4
			e2, l2 := runDummy(t, eager, cfg), runDummy(t, lazy, cfg)
			if !reflect.DeepEqual(e2, l2) {
				t.Fatalf("phase 2 diverges:\neager %+v\nlazy  %+v", e2, l2)
			}
			sameVCPUs(t, eager, lazy)
		})
	}
}

func TestLazyCPUIRQToUntouchedVCPU(t *testing.T) {
	// The NVMe completion vector is pinned by the guest's
	// irq_set_affinity to vCPU 7, which no lane runs on: the engine's
	// interrupt window is the first to touch it.
	const target = 7
	tmpl := lazyTemplate(t)
	eager, lazy := forkPair(t, tmpl)
	run := func(m *sim.Machine) sim.RunResult {
		if err := m.InitNVMe(); err != nil {
			t.Fatal(err)
		}
		if err := m.InitNVMeIRQ(target); err != nil {
			t.Fatal(err)
		}
		m.NVMe.Preload(9, []byte("lazy vcpu"))
		readVA, _ := m.K.Symbol("nvme_read")
		buf, err := m.K.Kmalloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		if m == lazy && m.K.LoadedCPU(target) != nil {
			t.Fatalf("vCPU %d materialized before the run", target)
		}
		res, err := m.Run(sim.RunConfig{Ops: 40, Workers: 1, RerandPeriodUs: 20, SyscallCycles: 1000},
			func(c *cpu.CPU) (uint64, error) {
				return c.Call(readVA, buf, 9, 512)
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	e, l := run(eager), run(lazy)
	if e.IRQsPerLane[target] == 0 {
		t.Fatalf("no interrupt delivered on vCPU %d: %v", target, e.IRQsPerLane)
	}
	if !reflect.DeepEqual(e, l) {
		t.Fatalf("lazy fork diverges:\neager %+v\nlazy  %+v", e, l)
	}
	sameVCPUs(t, eager, lazy)
}

func TestLazyCPUForkOfFork(t *testing.T) {
	// A fork of a fork clones vCPUs its parent touched from the parent
	// and the rest from the original template.
	tmpl := lazyTemplate(t)
	mid, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Release()
	runDummy(t, mid, sim.RunConfig{Ops: 60, Workers: 2, SyscallCycles: 1000})
	if mid.K.LoadedCPU(2) != nil {
		t.Fatal("two-worker run materialized vCPU 2")
	}
	if err := mid.Snapshot(); err != nil {
		t.Fatal(err)
	}
	eager, lazy := forkPair(t, mid)
	cfg := sim.RunConfig{Ops: 120, Workers: 4, RerandPeriodUs: 20, SyscallCycles: 1000}
	e, l := runDummy(t, eager, cfg), runDummy(t, lazy, cfg)
	if !reflect.DeepEqual(e, l) {
		t.Fatalf("fork of a fork diverges:\neager %+v\nlazy  %+v", e, l)
	}
	sameVCPUs(t, eager, lazy)
	if mid.K.LoadedCPU(2) != nil {
		t.Fatal("forking a frozen fork materialized its vCPUs")
	}
}

func TestLazyCPUTracedForkStaysLazy(t *testing.T) {
	// Attaching a tracer without a profiler clears samplers only on
	// vCPUs that exist, so it clones nothing.
	tmpl := lazyTemplate(t)
	f, err := tmpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	f.AttachObs(nil, nil)
	for i := 0; i < f.K.NumCPUs(); i++ {
		if f.K.LoadedCPU(i) != nil {
			t.Fatalf("AttachObs(nil, nil) materialized vCPU %d", i)
		}
	}
}

// forkRunAlloc returns the bytes one fork + one-worker run + release
// allocates, averaged over n iterations.
func forkRunAlloc(t *testing.T, tmpl *sim.Machine, n int, eager bool) uint64 {
	t.Helper()
	va, _ := tmpl.K.Symbol("dummy_ioctl")
	op := func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < n; i++ {
		f, err := tmpl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if eager {
			for c := 0; c < f.K.NumCPUs(); c++ {
				f.K.CPU(c)
			}
		}
		if _, err := f.Run(sim.RunConfig{Ops: 8, Workers: 1, SyscallCycles: 1000}, op); err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	runtime.ReadMemStats(&ms)
	return (ms.TotalAlloc - before) / uint64(n)
}

func TestLazyCPUForkAllocBudget(t *testing.T) {
	// A one-worker run on a fork of a 20-vCPU template clones one vCPU,
	// not 20. The budget sits well below what cloning every vCPU costs,
	// so a return to eager cloning fails here.
	tmpl := lazyTemplate(t)
	forkRunAlloc(t, tmpl, 1, false) // warm one-time allocations
	lazy := forkRunAlloc(t, tmpl, 10, false)
	eager := forkRunAlloc(t, tmpl, 10, true)
	t.Logf("bytes per fork+run: lazy %d, eager %d", lazy, eager)
	const budget = 160 << 10
	if lazy > budget {
		t.Fatalf("fork + one-worker run allocates %d bytes, budget %d (eager cloning: %d)", lazy, budget, eager)
	}
	if eager <= budget {
		t.Fatalf("eager cloning allocates %d bytes, within the %d budget: the budget no longer guards laziness", eager, budget)
	}
}

func TestForkAllocBudget(t *testing.T) {
	// Fork shares frame slots by chunk, kernel maps and the native table
	// with the template and clones modules on first use, so a fork plus
	// release of the Fig. 9 machine shape allocates a fixed, small set of
	// objects (47 when measured; 242 when every frame got its own slot
	// and every module, map and core native was copied at Fork).
	m := newMachine(t)
	loadDummy(t, m, true)
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f, err := m.Fork()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	})
	const budget = 50
	if allocs >= budget {
		t.Fatalf("Fork+Release allocates %v objects, budget %d", allocs, budget)
	}
}

func TestForkTLBEntrySeesDeviceDetach(t *testing.T) {
	// A fork's TLB caches a translation of a frame it shares with the
	// template; device DMA (WritableFrame, bypassing the TLB) then
	// detaches the frame. A read through the cached entry must return
	// the DMA's bytes: the entry holds the fork's own slot, whose record
	// the detach swapped.
	m := newMachine(t)
	va, err := m.K.Kmalloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.AS.Write64(va, 0x1111); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	f, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	read := func(c *cpu.CPU) (uint64, bool) {
		e, hit, err := c.TLB.Entry(va, mm.AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint64(e.Bytes()[va&mm.PageMask:]), hit
	}
	c := f.K.CPU(0)
	if v, _ := read(c); v != 0x1111 {
		t.Fatalf("fork reads %#x before the detach, want 0x1111", v)
	}
	frame, _, ok := f.K.AS.Lookup(va)
	if !ok {
		t.Fatal("heap page not mapped")
	}
	binary.LittleEndian.PutUint64(f.K.AS.Phys().WritableFrame(frame)[va&mm.PageMask:], 0x2222)
	v, hit := read(c)
	if !hit {
		t.Fatal("second read missed the TLB: the test no longer reads through a cached entry")
	}
	if v != 0x2222 {
		t.Fatalf("cached TLB entry reads %#x after the device detach, want 0x2222", v)
	}
	if got, _ := m.K.AS.Read64(va); got != 0x1111 {
		t.Fatalf("template reads %#x after the fork's detach", got)
	}
}
