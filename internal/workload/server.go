package workload

import (
	"fmt"
	"sort"

	"adelie/internal/cpu"
	"adelie/internal/devices"
	"adelie/internal/engine"
	"adelie/internal/sim"
)

// Request/response server scenario over the per-vCPU interrupt path:
// a load generator injects request frames into the multi-queue RSS NIC
// (queue q's NAPI vector pinned to vCPU q), each server op does
// application work plus one NVMe read served by the completion
// interrupt, and transmits a response frame back to the load generator
// — all under active re-randomization. The row sweep over the queue
// count is the tentpole's end-to-end demonstration: one queue delivers
// every interrupt on vCPU 0 (the legacy shape); more queues spread RX
// vectors across vCPUs bit-reproducibly.

// ServerRow is one queue-count point of the server experiment.
type ServerRow struct {
	Queues    int     // NIC RX queues (RSS)
	RPS       float64 // completed requests per second
	P99Us     float64 // 99th-percentile request latency (µs)
	IRQs      uint64  // ISR dispatches (NIC vectors + NVMe completion)
	IRQVCPUs  int     // distinct vCPUs that handled at least one IRQ
	Responses uint64  // response frames the load generator received
}

// seedServer is the server experiment's default machine seed.
const seedServer int64 = 1103

// serverAppCost is the per-request application work (request parse +
// server logic stand-in), matching the coalescing experiment's op.
const serverAppCost = 40_000

// serverRun executes one queue-count configuration and returns the row
// plus the raw RunResult (for determinism audits).
func serverRun(seed int64, queues, workers, ops int, periodUs float64) (ServerRow, sim.RunResult, error) {
	row := ServerRow{Queues: queues}
	m, err := newMachineQ(CfgRerandStack, seed, queues, "e1000emq", "nvme", "nvmeirq")
	if err != nil {
		return row, sim.RunResult{}, err
	}
	defer m.Release()
	const ringLen = 64
	if _, err := m.InitNICMQ("e1000emq", ringLen, queues); err != nil {
		return row, sim.RunResult{}, err
	}
	if err := m.InitNVMe(); err != nil {
		return row, sim.RunResult{}, err
	}
	// Storage path on completion interrupts, the vector pinned to the
	// last RX queue's vCPU so the NVMe ISR shares a lane with NIC work.
	if err := m.InitNVMeIRQ(queues - 1); err != nil {
		return row, sim.RunResult{}, err
	}
	m.NVMe.Preload(9, []byte("server block"))
	readVA, err := callVA(m, "nvme_read")
	if err != nil {
		return row, sim.RunResult{}, err
	}
	xmitVA, err := callVA(m, "e1000emq_xmit")
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
	// Warm the controller cache so reads measure the DRAM-hit path.
	if _, err := m.K.CPU(0).Call(readVA, bufs[0], 9, 512); err != nil {
		return row, sim.RunResult{}, err
	}
	// Load generator: one request frame every 10 µs of virtual time.
	// The rotating first byte walks the RSS hash across the RX queues,
	// so with ≥2 queues the NIC's vectors — each affine to its queue's
	// vCPU — fire on distinct vCPUs. Actors fire at round barriers:
	// injection order, hash spread and every IRQ decision they trigger
	// are deterministic.
	frame := make([]byte, 256)
	for i := range frame {
		frame[i] = byte(i)
	}
	var reqSeq uint64
	loadgen := engine.Actor{
		Name:     "server-loadgen",
		PeriodUs: 10,
		Step: func() error {
			frame[0] = byte(reqSeq)
			reqSeq++
			m.NIC.Deliver(frame)
			return nil
		},
	}
	// Server op: application work, one interrupt-completed NVMe read,
	// one response frame striped per lane across the TX ring. Request
	// latency = executed cycles + device wait + syscall path, collected
	// per lane (host-side closure state must be lane-indexed).
	lanes := workers
	if ncpu < lanes {
		lanes = ncpu
	}
	if lanes > ringLen {
		return row, sim.RunResult{}, fmt.Errorf("workload: %d lanes cannot stripe a %d-slot TX ring", lanes, ringLen)
	}
	frames := make([]uint64, ncpu)
	lats := make([][]uint64, ncpu)
	slotsPerLane := uint64(ringLen / lanes)
	syscall := syscallCost(CfgRerandStack)
	op := func(c *cpu.CPU) (uint64, error) {
		lane := c.ID
		start := c.Cycles
		burn(c, serverAppCost)
		lat, err := c.Call(readVA, bufs[lane], 9, 512)
		if err != nil {
			return 0, err
		}
		if lat == 0 {
			return 0, fmt.Errorf("server: nvme read failed")
		}
		slot := uint64(lane)*slotsPerLane + frames[lane]%slotsPerLane
		if _, err := c.Call(xmitVA, bufs[lane], 256, slot); err != nil {
			return 0, err
		}
		frames[lane]++
		lats[lane] = append(lats[lane], c.Cycles-start+lat+syscall)
		return lat, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: ops, Workers: workers, SyscallCycles: syscall,
		BytesPerOp: 256, RerandPeriodUs: periodUs,
		Actors: []engine.Actor{loadgen},
	}, op)
	if err != nil {
		return row, sim.RunResult{}, err
	}
	var all []uint64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := uint64(0)
	if len(all) > 0 {
		idx := len(all) * 99 / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		p99 = all[idx]
	}
	row.RPS = res.OpsPerSec
	row.P99Us = float64(p99) / sim.CPUHz * 1e6
	row.IRQs = res.IRQs
	row.IRQVCPUs = res.IRQVCPUs()
	row.Responses = m.Peer.RxFrames
	return row, res, nil
}

// ServerSweep runs the server scenario across queue counts 1, 2, 4, …
// up to maxQueues.
func ServerSweep(seed int64, maxQueues, workers, ops int, periodUs float64) ([]ServerRow, error) {
	var rows []ServerRow
	for q := 1; q <= maxQueues; q *= 2 {
		r, _, err := serverRun(seed, q, workers, ops, periodUs)
		if err != nil {
			return nil, fmt.Errorf("workload: server queues=%d: %w", q, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

var expServer = &Experiment{
	Name:   "server",
	Figure: "§5 server",
	Doc:    "request/response server: multi-queue RSS NIC + NVMe completion IRQs under re-randomization",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "requests per queue-count configuration", Default: 480, Quick: 60, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedServer},
		{Name: "queues", Doc: "max NIC RX queues (rows sweep 1,2,4,… up to this)", Default: 4, Min: 1, Max: devices.MaxNICQueues},
		{Name: "workers", Doc: "concurrent server lanes", Default: 4, Min: 1, Max: testbedCPUs},
		{Name: "period_us", Doc: "re-randomization period (µs)", Default: 1000},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := ServerSweep(p.Int64("seed"), p.Int("queues"), p.Int("workers"),
			p.Int("ops"), float64(p.Int("period_us")))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Server — request/response over per-vCPU interrupt routing (RSS queues swept)",
			Columns: []Column{
				Col("queues", "%-8d", "%-8s"),
				Col("rps", "%12.0f", "%12s"),
				Col("p99_us", "%10.1f", "%10s"),
				Col("irqs", "%8d", "%8s"),
				Col("irq_vcpus", "%11d", "%11s"),
				Col("responses", "%11d", "%11s"),
			},
		}
		for _, r := range rows {
			t.AddRow(r.Queues, r.RPS, r.P99Us, r.IRQs, r.IRQVCPUs, r.Responses)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"server_rps":    last[1].(float64),
			"server_p99_us": last[2].(float64),
		}
	},
}
