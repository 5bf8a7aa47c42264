package sim_test

import (
	"reflect"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

func newMachine(t testing.TB) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: 5, KASLR: kernel.KASLRFull64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loadDummy(t testing.TB, m *sim.Machine, rerand bool) {
	t.Helper()
	o := drivers.BuildOpts{PIC: true, Retpoline: true}
	if rerand {
		o.Rerand = true
		o.StackRerand = true
		o.RetEncrypt = true
	}
	if _, err := m.LoadDriver("dummy", o); err != nil {
		t.Fatal(err)
	}
}

func TestRunBasicAccounting(t *testing.T) {
	m := newMachine(t)
	loadDummy(t, m, false)
	va, _ := m.K.Symbol("dummy_ioctl")
	res, err := m.Run(sim.RunConfig{Ops: 100, Workers: 1, SyscallCycles: 1000}, func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 || res.BusyCycles == 0 || res.ElapsedSec <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Single worker, no wait: CPU usage ≈ 1/NumCPUs = 5%.
	if res.CPUUsagePct < 4 || res.CPUUsagePct > 6 {
		t.Fatalf("CPU usage = %.2f%%, want ≈5%%", res.CPUUsagePct)
	}
}

func TestRunWaitReducesCPUUsage(t *testing.T) {
	m := newMachine(t)
	loadDummy(t, m, false)
	va, _ := m.K.Symbol("dummy_ioctl")
	busyOnly, err := m.Run(sim.RunConfig{Ops: 50, Workers: 1}, func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	withWait, err := m.Run(sim.RunConfig{Ops: 50, Workers: 1}, func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 1_000_000, err // 0.45 ms device wait per op
	})
	if err != nil {
		t.Fatal(err)
	}
	if withWait.CPUUsagePct >= busyOnly.CPUUsagePct {
		t.Fatal("device wait should lower CPU usage")
	}
	if withWait.OpsPerSec >= busyOnly.OpsPerSec {
		t.Fatal("device wait should lower single-worker throughput")
	}
}

func TestRunWorkersOverlapWaits(t *testing.T) {
	// With latency dominated by wait, throughput scales with workers
	// until a ceiling — the Fig. 7/8 rising edge.
	m := newMachine(t)
	loadDummy(t, m, false)
	va, _ := m.K.Symbol("dummy_ioctl")
	run := func(workers int) float64 {
		res, err := m.Run(sim.RunConfig{Ops: 50, Workers: workers}, func(c *cpu.CPU) (uint64, error) {
			_, err := c.Call(va, 0)
			return 10_000_000, err // 4.5 ms wait
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.OpsPerSec
	}
	r1, r8, r64 := run(1), run(8), run(64)
	if !(r8 > 6*r1 && r64 > 6*r8) {
		t.Fatalf("wait-bound scaling broken: %f %f %f", r1, r8, r64)
	}
}

func TestRunWireCap(t *testing.T) {
	m := newMachine(t)
	loadDummy(t, m, false)
	va, _ := m.K.Symbol("dummy_ioctl")
	res, err := m.Run(sim.RunConfig{
		Ops: 50, Workers: 100, BytesPerOp: 10_000, WireBps: 1e6,
	}, func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB/s wire, 10 KB/op → at most 100 ops/s.
	if res.OpsPerSec > 101 {
		t.Fatalf("wire cap violated: %.1f ops/s", res.OpsPerSec)
	}
	if res.MBPerSec > 1.01 {
		t.Fatalf("MB/s above wire: %.2f", res.MBPerSec)
	}
}

func TestRunFiresRerandOnSchedule(t *testing.T) {
	m := newMachine(t)
	loadDummy(t, m, true)
	va, _ := m.K.Symbol("dummy_ioctl")
	res, err := m.Run(sim.RunConfig{
		Ops: 200, Workers: 1, RerandPeriodUs: 100, SyscallCycles: 100_000,
	}, func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RerandSteps == 0 || res.RerandCycles == 0 {
		t.Fatalf("re-randomizer never fired: %+v", res)
	}
	// Elapsed/period within one step of the observed count.
	expect := res.ElapsedSec * 1e6 / 100
	if float64(res.RerandSteps) < expect-1 || float64(res.RerandSteps) > expect+1 {
		t.Fatalf("steps = %d, want ≈%.1f", res.RerandSteps, expect)
	}
	if mod := m.Module("dummy"); mod.Rerandomizations != uint64(res.RerandSteps) {
		t.Fatalf("module moved %d times, runner reports %d", mod.Rerandomizations, res.RerandSteps)
	}
}

func TestRunDeterminism(t *testing.T) {
	results := make([]sim.RunResult, 2)
	for i := range results {
		m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: 5, KASLR: kernel.KASLRFull64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadDriver("dummy", drivers.BuildOpts{PIC: true, Rerand: true, RetEncrypt: true}); err != nil {
			t.Fatal(err)
		}
		va, _ := m.K.Symbol("dummy_ioctl")
		res, err := m.Run(sim.RunConfig{Ops: 300, Workers: 4, RerandPeriodUs: 500, SyscallCycles: 2000},
			func(c *cpu.CPU) (uint64, error) {
				_, err := c.Call(va, 0)
				return 0, err
			})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", results[0], results[1])
	}
}

func TestLoadDriverUnknownName(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("floppy", drivers.BuildOpts{}); err == nil {
		t.Fatal("unknown driver accepted")
	}
}

func TestCallUnknownSymbol(t *testing.T) {
	m := newMachine(t)
	if _, err := m.Call("nope"); err == nil {
		t.Fatal("unknown symbol accepted")
	}
}

func TestMachineDevicesWired(t *testing.T) {
	m := newMachine(t)
	if m.NVMe == nil || m.NIC == nil || m.Peer == nil || m.XHCI == nil {
		t.Fatal("devices missing")
	}
	// The NIC pair is connected: a host frame sent from the server side
	// reaches the load generator.
	m.NIC.Deliver([]byte("x")) // server side host-queue (no ring yet)
	if m.NIC.RxFrames != 1 {
		t.Fatal("server NIC dropped host frame")
	}
}
