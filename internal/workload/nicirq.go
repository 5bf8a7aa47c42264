package workload

import (
	"fmt"

	"adelie/internal/cpu"
	"adelie/internal/engine"
	"adelie/internal/sim"
)

// NIC interrupt-coalescing experiment. A load-generator actor on the
// engine's virtual clock injects frame bursts into the server NIC's RX
// ring; the driver's NAPI ISR (registered via request_irq at init)
// drains the ring when the line is delivered at clock boundaries; each
// server op does application work and transmits a response frame back
// to the load generator — the RX→ISR→TX round trip the Fig. 7/8
// machinery rides on. Sweeping the coalescing thresholds (max pending
// frames, max delay) trades interrupt rate against RX latency and —
// because an idle ring drains only when the line fires — against drops
// once bursts overrun the ring. This is the ROADMAP's "NIC interrupt
// model" item: the knob Fig. 7/8-style experiments need to model
// moderation the way real adapters (and the assertion-driven design
// exploration of Yu et al.) do.

// CoalesceRow is one point of the coalescing sweep.
type CoalesceRow struct {
	MaxFrames   int     // frame-count threshold
	DelayUs     float64 // max time the oldest pending frame waits
	RxFrames    uint64  // frames the wire placed into the ring
	DrainedRx   uint64  // frames the ISR consumed (driver rx_count)
	Dropped     uint64  // ring-overrun drops
	IRQsRaised  uint64  // line assertions (before barrier merging)
	IRQs        uint64  // ISR dispatches
	AvgIRQLatUs float64 // oldest-pending-frame → ISR dispatch
	Responses   uint64  // round-trip frames the load generator got back
}

// seedCoalesce is the coalescing experiment's default machine seed (the
// registry descriptor's "seed" param).
const seedCoalesce int64 = 1003

// nicCoalesce executes one coalescing configuration and returns the row
// plus the raw RunResult (for determinism audits).
func nicCoalesce(seed int64, maxFrames int, delayUs float64, ops int) (CoalesceRow, sim.RunResult, error) {
	row := CoalesceRow{MaxFrames: maxFrames, DelayUs: delayUs}
	m, err := newMachine(CfgPICRet, seed, "e1000e")
	if err != nil {
		return row, sim.RunResult{}, err
	}
	defer m.Release()
	// A small ring makes overruns reachable: a coalescing policy that
	// defers the drain past 8 pending frames fills every slot and the
	// wire starts dropping.
	const ringLen = 8
	if _, err := m.InitNICRing("e1000e", ringLen); err != nil {
		return row, sim.RunResult{}, err
	}
	m.NIC.SetCoalescing(uint64(maxFrames), uint64(delayUs*sim.CPUHz/1e6))
	xmitVA, err := callVA(m, "e1000e_xmit")
	if err != nil {
		return row, sim.RunResult{}, err
	}
	ncpu := m.K.NumCPUs()
	bufs := make([]uint64, ncpu)
	for i := range bufs {
		if bufs[i], err = m.K.Kmalloc(2048); err != nil {
			return row, sim.RunResult{}, err
		}
	}
	// Load generator: a clocked actor injecting one frame every 10 µs
	// of virtual time (≈2 per engine round at this op cost). Actors fire
	// at round barriers, so injection — and every IRQ decision it
	// triggers — is deterministic. The rate sits below the larger
	// frame-count thresholds on purpose: maxFrames=1 interrupts every
	// round, maxFrames=4 every couple of rounds, and maxFrames=16 can
	// only be rescued by the delay cap, by which time the 8-slot ring
	// has overrun — three visibly different service disciplines.
	frame := make([]byte, 256)
	for i := range frame {
		frame[i] = byte(i)
	}
	loadgen := engine.Actor{
		Name:     "nic-loadgen",
		PeriodUs: 10,
		Step: func() error {
			m.NIC.Deliver(frame)
			return nil
		},
	}
	// Server op: per-request application work plus one response frame
	// to the load generator, striped per lane across the TX ring. The
	// stripe is sized by the engine's *lane* count (min(Workers, CPUs)),
	// not the CPU count, so the lanes of one round always own disjoint
	// TX descriptors.
	const workers = 4
	lanes := workers
	if ncpu < lanes {
		lanes = ncpu
	}
	if lanes > ringLen {
		return row, sim.RunResult{}, fmt.Errorf("workload: %d lanes cannot stripe a %d-slot TX ring", lanes, ringLen)
	}
	frames := make([]uint64, ncpu)
	slotsPerLane := uint64(ringLen / lanes)
	op := func(c *cpu.CPU) (uint64, error) {
		lane := c.ID
		burn(c, 40_000)
		slot := uint64(lane)*slotsPerLane + frames[lane]%slotsPerLane
		if _, err := c.Call(xmitVA, bufs[lane], 256, slot); err != nil {
			return 0, err
		}
		frames[lane]++
		return 0, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: ops, Workers: workers, SyscallCycles: SyscallEntry,
		BytesPerOp: 256, Actors: []engine.Actor{loadgen},
	}, op)
	if err != nil {
		return row, sim.RunResult{}, err
	}
	drained, err := m.Call("e1000e_rx_count")
	if err != nil {
		return row, sim.RunResult{}, err
	}
	line := m.NIC.IRQLine()
	row.RxFrames = m.NIC.RxFrames
	row.DrainedRx = drained
	row.Dropped = m.NIC.Dropped
	row.IRQsRaised = m.NIC.IRQsAsserted
	row.IRQs = res.IRQs
	row.AvgIRQLatUs = m.Bus.IC().AvgLatencyCycles(line) / sim.CPUHz * 1e6
	row.Responses = m.Peer.RxFrames
	return row, res, nil
}

// CoalesceMaxFrames is the sweep of the acceptance experiment.
var CoalesceMaxFrames = []int{1, 4, 16}

// nicCoalesceSweep sweeps the frame-count threshold at a fixed delay
// cap, producing the RX-latency/IRQ-rate/drop trade-off curves.
func nicCoalesceSweep(seed int64, delayUs float64, ops int) ([]CoalesceRow, error) {
	var rows []CoalesceRow
	for _, mf := range CoalesceMaxFrames {
		r, _, err := nicCoalesce(seed, mf, delayUs, ops)
		if err != nil {
			return nil, fmt.Errorf("workload: coalesce maxframes=%d: %w", mf, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

var expCoalesce = &Experiment{
	Name:   "coalesce",
	Figure: "NIC sweep",
	Doc:    "NIC interrupt coalescing: RX latency / IRQ rate / drops vs max-frames",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "server ops per coalescing configuration", Default: 960, Quick: 120, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedCoalesce},
		{Name: "delay", Doc: "coalescing delay cap (µs)", Default: 100},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := nicCoalesceSweep(p.Int64("seed"), float64(p.Int("delay")), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "NIC interrupt coalescing — RX latency / IRQ rate / drops vs max-frames",
			Columns: []Column{
				Col("maxframes", "%-10d", "%-10s"),
				Col("delay_us", "%9.0f", "%9s"),
				Col("rx", "%8d", "%8s"),
				Col("drained", "%8d", "%8s"),
				Col("dropped", "%8d", "%8s"),
				Col("irqs", "%8d", "%8s"),
				Col("raised", "%12d", "%12s"),
				Col("rxlat_us", "%10.2f", "%10s"),
			},
		}
		for _, r := range rows {
			t.AddRow(r.MaxFrames, r.DelayUs, r.RxFrames, r.DrainedRx, r.Dropped,
				r.IRQs, r.IRQsRaised, r.AvgIRQLatUs)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		out := map[string]float64{}
		for _, r := range t.Rows {
			mf := r[0].(int)
			out[fmt.Sprintf("mf%d-irqs", mf)] = float64(r[5].(uint64))
			out[fmt.Sprintf("mf%d-rxlat-us", mf)] = r[7].(float64)
		}
		return out
	},
}
