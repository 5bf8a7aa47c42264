package workload

import (
	"fmt"
	"math/rand"

	"adelie/internal/cpu"
	"adelie/internal/devices"
	"adelie/internal/sim"
)

// RerandPeriod labels the re-randomization settings of §5.2.
type RerandPeriod struct {
	Label    string
	PeriodUs float64 // 0 = disabled
}

// Periods used across Figs. 6–8 (1 ms, 5 ms, 20 ms, plus vanilla).
var (
	PeriodOff  = RerandPeriod{"linux", 0}
	PeriodNone = RerandPeriod{"no-rerand", 0}
	Period20ms = RerandPeriod{"20 ms", 20_000}
	Period5ms  = RerandPeriod{"5 ms", 5_000}
	Period1ms  = RerandPeriod{"1 ms", 1_000}
)

// ---------------------------------------------------------------------------
// Fig. 6 — NVMe O_DIRECT read throughput under re-randomization.

// NVMeRow is one bar pair of Fig. 6.
type NVMeRow struct {
	Period    string
	MBps      float64
	IOPS      float64
	CPUPct    float64
	RerandPct float64 // randomizer thread share of all cores
}

// Default seeds of the Fig. 6–9 experiments (the "seed" param defaults
// in their registry descriptors).
const (
	seedFig6 int64 = 601
	seedFig7 int64 = 701
	seedFig8 int64 = 801
	seedFig9 int64 = 901
)

// nvmeDirectRead reproduces the §5.2 NVMe experiment: the same 512-byte
// block is read through the driver in a tight loop with O_DIRECT/O_SYNC
// semantics, hitting the controller's DRAM cache to minimize I/O wait.
// vanilla=true runs the non-rerandomizable (plain Linux) driver build.
func nvmeDirectRead(seed int64, period RerandPeriod, vanilla bool, ops int) (NVMeRow, error) {
	cfg := CfgRerandStack
	if vanilla {
		cfg = CfgVanillaRet
	}
	m, err := newMachine(cfg, seed, "nvme")
	if err != nil {
		return NVMeRow{}, err
	}
	defer m.Release()
	if err := m.InitNVMe(); err != nil {
		return NVMeRow{}, err
	}
	m.NVMe.Preload(5, []byte("fig6 block"))
	buf, err := m.K.Kmalloc(512)
	if err != nil {
		return NVMeRow{}, err
	}
	readVA, err := callVA(m, "nvme_read")
	if err != nil {
		return NVMeRow{}, err
	}
	// Warm the controller cache so the loop measures the DRAM-hit path.
	if _, err := m.K.CPU(0).Call(readVA, buf, 5, 512); err != nil {
		return NVMeRow{}, err
	}
	op := func(c *cpu.CPU) (uint64, error) {
		lat, err := c.Call(readVA, buf, 5, 512)
		if err != nil {
			return 0, err
		}
		if lat == 0 {
			return 0, fmt.Errorf("nvme read failed")
		}
		return lat, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: ops, Workers: 1, SyscallCycles: SyscallEntry,
		BytesPerOp: 512, RerandPeriodUs: period.PeriodUs,
	}, op)
	if err != nil {
		return NVMeRow{}, err
	}
	return NVMeRow{
		Period: period.Label, MBps: res.MBPerSec,
		IOPS: res.OpsPerSec, CPUPct: res.CPUUsagePct,
		RerandPct: pct(res.RerandCycles, res.ElapsedSec),
	}, nil
}

func pct(cycles uint64, elapsedSec float64) float64 {
	if elapsedSec == 0 {
		return 0
	}
	return float64(cycles) / (20 * elapsedSec * sim.CPUHz) * 100
}

// nvmeSweep runs the Fig. 6 configurations.
func nvmeSweep(seed int64, ops int) ([]NVMeRow, error) {
	var rows []NVMeRow
	r, err := nvmeDirectRead(seed, PeriodOff, true, ops)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)
	for _, p := range []RerandPeriod{PeriodNone, Period5ms, Period1ms} {
		r, err := nvmeDirectRead(seed, p, false, ops)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

var expFig6 = &Experiment{
	Name:   "fig6",
	Figure: "Fig. 6",
	Doc:    "NVMe O_DIRECT 512B read throughput under re-randomization",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "direct reads per configuration", Default: 2400, Quick: 300, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig6},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := nvmeSweep(p.Int64("seed"), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Fig. 6 — NVMe O_DIRECT 512B read under re-randomization",
			Columns: []Column{
				Col("config", "%-10s", "%-10s"),
				Col("MB/s", "%10.1f", "%10s"),
				Col("IOPS", "%12.0f", "%12s"),
				Col("CPU%", "%8.2f", "%8s"),
				Col("rerand%", "%10.4f", "%10s"),
			},
		}
		for _, r := range rows {
			t.AddRow(r.Period, r.MBps, r.IOPS, r.CPUPct, r.RerandPct)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1] // 1 ms period
		return map[string]float64{"1ms-MBps": last[1].(float64), "1ms-cpu-pct": last[3].(float64)}
	},
}

// ---------------------------------------------------------------------------
// Fig. 7 — mySQL OLTP (sysbench oltp) with E1000E + NVMe re-randomized.

// OLTPRow is one point of Fig. 7.
type OLTPRow struct {
	Period      string
	Concurrency int
	TPS         float64
	CPUPct      float64
	// NICDropped sums frames both adapters dropped: TX descriptor
	// faults, plus RX ring overruns once traffic is delivered into a
	// driver-owned ring (the OLTP/Apache response path is TX-only into
	// the host-driven load generator, so overruns appear here when a
	// workload adds server-bound RX traffic).
	NICDropped uint64
}

// OLTPConcurrency is the Fig. 7 sweep.
var OLTPConcurrency = []int{25, 50, 75, 100}

// oltp models a sysbench-oltp transaction against the 10×1M-row database
// (§5.2): ten queries of server-side work, a partially-cached working set
// hitting NVMe on misses, and the result set returned over the NIC.
func oltp(seed int64, period RerandPeriod, vanilla bool, concurrency, txs int) (OLTPRow, error) {
	cfg := CfgRerandStack
	if vanilla {
		cfg = CfgVanillaRet
	}
	m, err := newMachine(cfg, seed, "e1000e", "nvme")
	if err != nil {
		return OLTPRow{}, err
	}
	defer m.Release()
	if err := m.InitNVMe(); err != nil {
		return OLTPRow{}, err
	}
	ringLen, err := m.InitNIC("e1000e")
	if err != nil {
		return OLTPRow{}, err
	}
	m.NVMe.Preload(100, []byte("db page"))
	// Per-lane I/O buffers, RNGs and TX-descriptor partitions: each lane
	// is one simulated CPU of the SMP model, so each owns its DMA target,
	// its randomness stream and a disjoint stripe of the NIC ring.
	ncpu := m.K.NumCPUs()
	bufs := make([]uint64, ncpu)
	rngs := make([]*rand.Rand, ncpu)
	frames := make([]uint64, ncpu)
	for i := 0; i < ncpu; i++ {
		if bufs[i], err = m.K.Kmalloc(4096); err != nil {
			return OLTPRow{}, err
		}
		rngs[i] = rand.New(rand.NewSource(7 + int64(i)))
	}
	slotsPerLane := ringLen / uint64(ncpu)
	if slotsPerLane == 0 {
		slotsPerLane = 1
	}
	readVA, err := callVA(m, "nvme_read")
	if err != nil {
		return OLTPRow{}, err
	}
	xmitVA, err := callVA(m, "e1000e_xmit")
	if err != nil {
		return OLTPRow{}, err
	}
	const respBytes = 44_000 // result set per transaction
	op := func(c *cpu.CPU) (uint64, error) {
		lane := c.ID
		rng, buf := rngs[lane], bufs[lane]
		var wait uint64
		for q := 0; q < 10; q++ {
			burn(c, OLTPQueryCost)
			// The database is partially cached in RAM (§5.2): ~15% of
			// queries miss to NVMe.
			if rng.Intn(100) < 15 {
				lat, err := c.Call(readVA, buf, uint64(100+rng.Intn(64)), 4096)
				if err != nil {
					return 0, err
				}
				wait += lat
			}
		}
		// Return the result set: one driver xmit per MTU-sized frame,
		// cycling through this lane's stripe of the TX ring.
		for b := 0; b < respBytes; b += 1448 {
			slot := uint64(lane)*slotsPerLane + frames[lane]%slotsPerLane
			if _, err := c.Call(xmitVA, buf, 1448, slot); err != nil {
				return 0, err
			}
			frames[lane]++
		}
		// Client round-trip think time (the load generator is a separate
		// box; latency off the server's CPUs).
		wait += 30_000_000 // ≈13.6 ms
		return wait, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: txs, Workers: concurrency, SyscallCycles: SyscallEntry * 12,
		BytesPerOp: respBytes, WireBps: devices.WireBytesPerSec,
		RerandPeriodUs: period.PeriodUs,
	}, op)
	if err != nil {
		return OLTPRow{}, err
	}
	return OLTPRow{
		Period: period.Label, Concurrency: concurrency,
		TPS: res.OpsPerSec, CPUPct: res.CPUUsagePct,
		NICDropped: m.NIC.Dropped + m.Peer.Dropped,
	}, nil
}

// oltpSweep runs the Fig. 7 grid.
func oltpSweep(seed int64, txs, maxConc int) ([]OLTPRow, error) {
	var rows []OLTPRow
	for _, p := range []struct {
		RerandPeriod
		vanilla bool
	}{{PeriodOff, true}, {Period5ms, false}, {Period1ms, false}} {
		for _, conc := range OLTPConcurrency {
			if conc > maxConc {
				continue
			}
			r, err := oltp(seed, p.RerandPeriod, p.vanilla, conc, txs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

var expFig7 = &Experiment{
	Name:   "fig7",
	Figure: "Fig. 7",
	Doc:    "mySQL OLTP transactions/s with E1000E+NVMe re-randomized",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "transactions per configuration point", Default: 400, Quick: 50, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig7},
		{Name: "conc", Doc: "cap on the client-concurrency sweep", Default: 100},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := oltpSweep(p.Int64("seed"), p.Int("ops"), p.Int("conc"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Fig. 7 — mySQL OLTP (E1000E+NVMe re-randomized)",
			Columns: []Column{
				Col("config", "%-10s", "%-10s"),
				Col("conc", "%6d", "%6s"),
				Col("tx/s", "%10.0f", "%10s"),
				Col("CPU%", "%8.2f", "%8s"),
				Col("drops", "%8d", "%8s"),
			},
		}
		for _, r := range rows {
			t.AddRow(r.Period, r.Concurrency, r.TPS, r.CPUPct, r.NICDropped)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1] // 1 ms at the highest concurrency
		return map[string]float64{"1ms-tps": last[2].(float64), "1ms-cpu-pct": last[3].(float64)}
	},
}

// ---------------------------------------------------------------------------
// Fig. 8 — ApacheBench static file serving, five modules re-randomized.

// ApacheRow is one point of Fig. 8.
type ApacheRow struct {
	Period      string
	BlockBytes  int
	Concurrency int
	MBps        float64
	CPUPct      float64
	NICDropped  uint64 // frame drops across both adapters (see OLTPRow)
}

// ApacheBlockSizes and ApacheConcurrency are the Fig. 8 sweeps.
var (
	ApacheBlockSizes  = []int{512, 1024, 4096, 8192}
	ApacheConcurrency = []int{20, 40, 60, 80, 100}
)

// apache serves a static file of the given size per request. Pressure
// lands on E1000E with occasional NVMe accesses; FUSE, ext4 and xHCI ride
// along as extra re-randomization load, exactly as in §5.2.
func apache(seed int64, period RerandPeriod, vanilla bool, blockBytes, concurrency, reqs int) (ApacheRow, error) {
	cfg := CfgRerandStack
	if vanilla {
		cfg = CfgVanillaRet
	}
	m, err := newMachine(cfg, seed, "e1000e", "nvme", "fuse", "ext4", "xhci")
	if err != nil {
		return ApacheRow{}, err
	}
	defer m.Release()
	if err := m.InitNVMe(); err != nil {
		return ApacheRow{}, err
	}
	ringLen, err := m.InitNIC("e1000e")
	if err != nil {
		return ApacheRow{}, err
	}
	if err := m.InitXHCI(); err != nil {
		return ApacheRow{}, err
	}
	// Per-lane buffers, RNGs and ring stripes (see OLTP).
	ncpu := m.K.NumCPUs()
	bufs := make([]uint64, ncpu)
	rngs := make([]*rand.Rand, ncpu)
	frames := make([]uint64, ncpu)
	for i := 0; i < ncpu; i++ {
		if bufs[i], err = m.K.Kmalloc(8192); err != nil {
			return ApacheRow{}, err
		}
		rngs[i] = rand.New(rand.NewSource(9 + int64(i)))
	}
	slotsPerLane := ringLen / uint64(ncpu)
	if slotsPerLane == 0 {
		slotsPerLane = 1
	}
	pollVA, err := callVA(m, "e1000e_poll_rx")
	if err != nil {
		return ApacheRow{}, err
	}
	xmitVA, err := callVA(m, "e1000e_xmit")
	if err != nil {
		return ApacheRow{}, err
	}
	getBlockVA, err := callVA(m, "ext4_get_block")
	if err != nil {
		return ApacheRow{}, err
	}
	readVA, err := callVA(m, "nvme_read")
	if err != nil {
		return ApacheRow{}, err
	}
	op := func(c *cpu.CPU) (uint64, error) {
		lane := c.ID
		rng, buf := rngs[lane], bufs[lane]
		laneSlot := func() uint64 { return uint64(lane)*slotsPerLane + frames[lane]%slotsPerLane }
		var wait uint64
		// Receive + parse the request (this lane's stripe of the RX ring).
		if _, err := c.Call(pollVA, laneSlot()); err != nil {
			return 0, err
		}
		burn(c, HTTPAppCost)
		// File lookup through ext4; ~5% of requests miss the page cache
		// and hit NVMe.
		if _, err := c.Call(getBlockVA, 3, uint64(rng.Intn(2048))); err != nil {
			return 0, err
		}
		if rng.Intn(100) < 5 {
			lat, err := c.Call(readVA, buf, uint64(200+rng.Intn(32)), 4096)
			if err != nil {
				return 0, err
			}
			wait += lat
		}
		// Send the response, one frame per MTU.
		for b := 0; b < blockBytes+300; b += 1448 {
			if _, err := c.Call(xmitVA, buf, 1448, laneSlot()); err != nil {
				return 0, err
			}
			frames[lane]++
		}
		// Client-side round trip.
		wait += 5_500_000 // ≈2.5 ms
		return wait, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: reqs, Workers: concurrency, SyscallCycles: SyscallEntry * 4,
		BytesPerOp: float64(blockBytes + 300), WireBps: devices.WireBytesPerSec,
		RerandPeriodUs: period.PeriodUs,
	}, op)
	if err != nil {
		return ApacheRow{}, err
	}
	return ApacheRow{
		Period: period.Label, BlockBytes: blockBytes, Concurrency: concurrency,
		MBps: res.MBPerSec, CPUPct: res.CPUUsagePct,
		NICDropped: m.NIC.Dropped + m.Peer.Dropped,
	}, nil
}

// apacheSweep runs the Fig. 8 grid.
func apacheSweep(seed int64, reqs, maxBlock, maxConc int) ([]ApacheRow, error) {
	var rows []ApacheRow
	for _, p := range []struct {
		RerandPeriod
		vanilla bool
	}{{PeriodOff, true}, {Period20ms, false}, {Period5ms, false}, {Period1ms, false}} {
		for _, bs := range ApacheBlockSizes {
			if bs > maxBlock {
				continue
			}
			for _, conc := range ApacheConcurrency {
				if conc > maxConc {
					continue
				}
				r, err := apache(seed, p.RerandPeriod, p.vanilla, bs, conc, reqs)
				if err != nil {
					return nil, err
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

var expFig8 = &Experiment{
	Name:   "fig8",
	Figure: "Fig. 8",
	Doc:    "ApacheBench static file serving, five modules re-randomized",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "requests per configuration point", Default: 240, Quick: 30, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig8},
		{Name: "block", Doc: "cap on the served-file block-size sweep (bytes)", Default: 8192},
		{Name: "conc", Doc: "cap on the client-concurrency sweep", Default: 100},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := apacheSweep(p.Int64("seed"), p.Int("ops"), p.Int("block"), p.Int("conc"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Fig. 8 — ApacheBench (5 modules re-randomized)",
			Columns: []Column{
				Col("config", "%-10s", "%-10s"),
				Col("block", "%7d", "%7s"),
				Col("conc", "%6d", "%6s"),
				Col("MB/s", "%10.1f", "%10s"),
				Col("CPU%", "%8.2f", "%8s"),
				Col("drops", "%8d", "%8s"),
			},
		}
		for _, r := range rows {
			t.AddRow(r.Period, r.BlockBytes, r.Concurrency, r.MBps, r.CPUPct, r.NICDropped)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1] // tightest period, biggest block, highest conc
		return map[string]float64{"1ms-MBps": last[3].(float64), "1ms-cpu-pct": last[4].(float64)}
	},
}

// ---------------------------------------------------------------------------
// Fig. 9 — IOCTL null-operation throughput (CPU-bound worst case, §5.3).

// IoctlRow is one bar of Fig. 9.
type IoctlRow struct {
	Variant    string
	MopsPerSec float64
	CPUPct     float64
}

// IoctlVariants are the Fig. 9 comparison points: original Linux, plain
// PIC, wrappers (re-randomizable without stack swap), and wrappers plus
// stack re-randomization.
var IoctlVariants = []struct {
	Name string
	Cfg  Config
}{
	{"linux", CfgVanillaRet},
	{"pic", CfgPICRet},
	{"wrappers", CfgRerand},
	{"wrappers+stack", CfgRerandStack},
}

// ioctl measures the dummy driver's null-ioctl rate.
func ioctl(seed int64, name string, cfg Config, ops int) (IoctlRow, error) {
	m, err := newMachine(cfg, seed, "dummy")
	if err != nil {
		return IoctlRow{}, err
	}
	defer m.Release()
	va, err := callVA(m, "dummy_ioctl")
	if err != nil {
		return IoctlRow{}, err
	}
	op := func(c *cpu.CPU) (uint64, error) {
		ret, err := c.Call(va, 0)
		if err != nil {
			return 0, err
		}
		if ret != 0 {
			return 0, fmt.Errorf("ioctl returned %d", int64(ret))
		}
		return 0, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: ops, Workers: 1, SyscallCycles: SyscallEntry,
	}, op)
	if err != nil {
		return IoctlRow{}, err
	}
	return IoctlRow{Variant: name, MopsPerSec: res.OpsPerSec / 1e6, CPUPct: res.CPUUsagePct}, nil
}

// ioctlSweep runs the Fig. 9 variants.
func ioctlSweep(seed int64, ops int) ([]IoctlRow, error) {
	var rows []IoctlRow
	for _, v := range IoctlVariants {
		r, err := ioctl(seed, v.Name, v.Cfg, ops)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

var expFig9 = &Experiment{
	Name:   "fig9",
	Figure: "Fig. 9",
	Doc:    "IOCTL null-op throughput per mechanism variant (CPU-bound worst case)",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "ioctl calls per variant", Default: 24000, Quick: 3000, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig9},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := ioctlSweep(p.Int64("seed"), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Fig. 9 — IOCTL null-op throughput (CPU-bound worst case)",
			Columns: []Column{
				Col("variant", "%-16s", "%-16s"),
				Col("Mops/s", "%10.3f", "%10s"),
				Col("CPU%", "%8.2f", "%8s"),
				{Name: "vs linux", Head: "vs linux", Fmt: "%9.1f%%", HeadFmt: "%10s"},
			},
		}
		base := rows[0].MopsPerSec
		for _, r := range rows {
			t.AddRow(r.Variant, r.MopsPerSec, r.CPUPct, (r.MopsPerSec/base-1)*100)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		out := map[string]float64{}
		for _, r := range t.Rows {
			out[r[0].(string)+"-Mops"] = r[1].(float64)
		}
		return out
	},
}
