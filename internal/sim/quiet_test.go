package sim_test

import (
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/sim"
)

// quietMachine boots the Fig. 9 machine shape (20 vCPUs, the default
// NVMe and NIC pair on the bus, the PIC dummy driver) and returns a run
// of ops null dummy_ioctl calls on one lane: one engine round per call,
// and no device ever holds work, so every barrier is quiet.
func quietMachine(t testing.TB) func(ops int) {
	t.Helper()
	m := newMachine(t)
	loadDummy(t, m, false)
	va, ok := m.K.Symbol("dummy_ioctl")
	if !ok {
		t.Fatal("dummy_ioctl not exported")
	}
	op := func(c *cpu.CPU) (uint64, error) {
		_, err := c.Call(va, 0)
		return 0, err
	}
	return func(ops int) {
		res, err := m.Run(sim.RunConfig{Ops: ops, Workers: 1, SyscallCycles: 1000}, op)
		if err != nil {
			t.Fatal(err)
		}
		if res.IRQs != 0 {
			t.Fatalf("quiet run delivered %d interrupts", res.IRQs)
		}
	}
}

// BenchmarkRunQuietRounds measures one quiet engine round — a null
// dummy_ioctl on one lane plus its barrier, at which no device holds
// work — so ns/op and allocs/op are per round.
func BenchmarkRunQuietRounds(b *testing.B) {
	run := quietMachine(b)
	run(64) // translate and link the call path once
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// TestQuietRoundAllocsNothing: a run's allocations do not grow with its
// rounds while the barriers are quiet. A run itself allocates a fixed
// amount (engine, clock, lap and per-lane slices), so a 1001-round run
// must allocate exactly what a 1-round run does.
func TestQuietRoundAllocsNothing(t *testing.T) {
	run := quietMachine(t)
	run(64)
	one := testing.AllocsPerRun(5, func() { run(1) })
	many := testing.AllocsPerRun(5, func() { run(1001) })
	if many != one {
		t.Fatalf("1001-round run allocates %.0f, 1-round run %.0f: a quiet round allocates", many, one)
	}
}
