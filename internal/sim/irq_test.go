package sim_test

import (
	"cmp"
	"slices"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/obs"
	"adelie/internal/sim"
)

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
	ic := m.Bus.IC()
	nic, nvme := m.Bus.IRQLines("nic0"), m.Bus.IRQLine("nvme")
	ic.SetRoute(nic[0], 1)
	ic.SetRoute(nic[1], 0)
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
	if m.NIC.QueueRxFrames(0) == 0 || m.NIC.QueueRxFrames(1) == 0 {
		t.Fatalf("frames did not reach both RX queues: %d, %d", m.NIC.QueueRxFrames(0), m.NIC.QueueRxFrames(1))
	}

	type del struct{ vcpu, line int }
	var got []del
	for _, d := range ic.Trace() {
		if !d.Handled {
			t.Fatalf("line %d on vCPU %d delivered unhandled", d.Line, d.VCPU)
		}
		got = append(got, del{d.VCPU, d.Line})
	}
	want := []del{{0, nic[1]}, {1, nic[0]}, {2, nvme}}
	if !slices.Equal(got, want) {
		t.Fatalf("delivery trace %v, want (vCPU, line) order %v", got, want)
	}

	// Per-lane accounting against the trace: dispatches from the
	// delivery trace, ISR cycles from the traced ISR spans.
	irqs := make([]uint64, m.K.NumCPUs())
	cycles := make([]uint64, m.K.NumCPUs())
	for _, d := range got {
		irqs[d.vcpu]++
	}
	var spans []del
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindISR {
			cycles[ev.Track] += ev.Dur
			spans = append(spans, del{ev.Track, int(ev.Args[0].U)})
		}
	}
	slices.SortFunc(spans, func(a, b del) int { return cmp.Or(cmp.Compare(a.vcpu, b.vcpu), cmp.Compare(a.line, b.line)) })
	if !slices.Equal(spans, want) {
		t.Fatalf("traced ISR spans %v, want %v", spans, want)
	}
	if !slices.Equal(res.IRQsPerLane, irqs) {
		t.Fatalf("IRQsPerLane %v, trace gives %v", res.IRQsPerLane, irqs)
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
