package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/elfmod"
	"adelie/internal/isa"
	"adelie/internal/kernel"
	"adelie/internal/obs"
	"adelie/internal/sim"
)

// moduleFuncVA returns the current address of a function in a loaded
// module, exported or not.
func moduleFuncVA(t *testing.T, mod *kernel.Module, name string) uint64 {
	t.Helper()
	for _, s := range mod.Obj.Symbols {
		if s.Name != name || s.Kind != elfmod.SymFunc {
			continue
		}
		for _, p := range []*kernel.Part{&mod.Movable, &mod.Immovable} {
			if va, ok := p.SectionVA(s.Section); ok {
				return va + s.Offset
			}
		}
	}
	t.Fatalf("%s: no function %q", mod.Name, name)
	return 0
}

// TestMixedRouteWindowOrder raises three vectors routed against line
// order in one round — NIC queue 0 on vCPU 1, queue 1 on vCPU 0 and
// the NVMe completion on vCPU 2 — and checks that the barrier window
// delivers them in (vCPU, line) order and that the per-lane accounting
// matches what was delivered.
func TestMixedRouteWindowOrder(t *testing.T) {
	m, err := sim.NewMachine(sim.Config{NumCPUs: 4, Seed: 5, KASLR: kernel.KASLRFull64, NICQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e1000emq", "nvme", "nvmeirq"} {
		if _, err := m.LoadDriver(name, drivers.BuildOpts{PIC: true, Retpoline: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.InitNICMQ("e1000emq", 64, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.InitNVMe(); err != nil {
		t.Fatal(err)
	}
	if err := m.InitNVMeIRQ(2); err != nil {
		t.Fatal(err)
	}
	nic, nvme := m.Bus.IRQLines("nic0"), m.Bus.IRQLine("nvme")

	// Interpose a zero-cost native on each line that records (vCPU,
	// line) as the engine dispatches it, then tail-calls the driver's
	// ISR: the native returns to the pushed handler address, and the
	// handler's ret reaches the dispatcher's host return. Registering
	// the native also routes the line to its vCPU.
	type del struct{ vcpu, line int }
	var dispatched []del
	interpose := func(line, vcpu int, module, isr string) {
		mod := m.Module(module)
		va := m.K.DefineNative(fmt.Sprintf("record_isr_L%d", line), 0, func(c *cpu.CPU) error {
			dispatched = append(dispatched, del{c.ID, int(c.Regs[isa.ArgRegs[0]])})
			return c.Push(moduleFuncVA(t, mod, isr))
		})
		m.K.RegisterISR(line, va, vcpu)
	}
	interpose(nic[0], 1, "e1000emq", "e1000emq_isr.napi")
	interpose(nic[1], 0, "e1000emq", "e1000emq_isr.napi")
	interpose(nvme, 2, "nvmeirq", "nvmeirq.isr")
	m.NVMe.Preload(9, []byte("mixed window"))
	readVA, ok := m.K.Symbol("nvme_read")
	if !ok {
		t.Fatal("nvme_read not exported")
	}
	buf, err := m.K.Kmalloc(2048)
	if err != nil {
		t.Fatal(err)
	}

	// One op, one round: frames for both RX queues plus an
	// interrupt-completed NVMe read, so all three lines are pending at
	// the same barrier.
	tr := obs.NewTracer("mixed", m.K.NumCPUs())
	res, err := m.Run(sim.RunConfig{Ops: 1, Workers: 1, SyscallCycles: 1000, Trace: tr},
		func(c *cpu.CPU) (uint64, error) {
			frame := make([]byte, 64)
			for b := 0; b < 4; b++ {
				frame[0] = byte(b)
				m.NIC.Deliver(frame)
			}
			return c.Call(readVA, buf, 9, 512)
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []del{{0, nic[1]}, {1, nic[0]}, {2, nvme}}
	if !slices.Equal(dispatched, want) {
		t.Fatalf("dispatched %v, want (vCPU, line) order %v", dispatched, want)
	}
	if n, _ := m.Call("e1000emq_rx_count", 0); n == 0 {
		t.Fatal("queue 0's ISR drained no frames")
	}
	if n, _ := m.Call("e1000emq_rx_count", 1); n == 0 {
		t.Fatal("queue 1's ISR drained no frames")
	}
	if n, _ := m.Call("nvmeirq_count"); n != 1 {
		t.Fatalf("nvmeirq_count = %d, want 1", n)
	}

	// Per-lane accounting against the traced ISR spans.
	irqs := make([]uint64, m.K.NumCPUs())
	cycles := make([]uint64, m.K.NumCPUs())
	for _, ev := range tr.Events() {
		if ev.Kind != obs.KindISR {
			continue
		}
		if ev.Args[2].U != 1 {
			t.Fatalf("line %d on vCPU %d delivered unhandled", ev.Args[0].U, ev.Track)
		}
		irqs[ev.Track]++
		cycles[ev.Track] += ev.Dur
	}
	if !slices.Equal(res.IRQsPerLane, irqs) {
		t.Fatalf("IRQsPerLane %v, traced ISR spans give %v", res.IRQsPerLane, irqs)
	}
	if !slices.Equal(res.IRQCyclesPerLane, cycles) {
		t.Fatalf("IRQCyclesPerLane %v, traced ISR spans give %v", res.IRQCyclesPerLane, cycles)
	}
	var sumIRQs, sumCycles uint64
	for v := range irqs {
		if irqs[v] > 0 && cycles[v] == 0 {
			t.Fatalf("vCPU %d handled %d IRQs in zero cycles", v, irqs[v])
		}
		sumIRQs += res.IRQsPerLane[v]
		sumCycles += res.IRQCyclesPerLane[v]
	}
	if res.IRQs != sumIRQs || res.IRQCycles != sumCycles {
		t.Fatalf("aggregate IRQs %d / cycles %d, per-lane sums %d / %d", res.IRQs, res.IRQCycles, sumIRQs, sumCycles)
	}
}
