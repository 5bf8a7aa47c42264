package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"adelie/internal/attack"
	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kcc"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

// ---------------------------------------------------------------------------
// Fig. 5a — module memory footprint, PIC vs non-PIC.

// SizeRow is one bar pair of Fig. 5a.
type SizeRow struct {
	Module       string
	VanillaBytes uint64
	PICBytes     uint64 // PIC + retpoline, as the paper presents
}

// Default seeds of the Fig. 5 experiments (the "seed" param defaults in
// their registry descriptors).
const (
	seedFig5a int64 = 5
	seedFig5b int64 = 301
	seedFig5c int64 = 302
	seedFig5d int64 = 303
)

// moduleSizes builds the driver suite plus a sample of the synthetic
// corpus under both code models, loads each into a kernel, and reports
// loaded content sizes (sections + GOT slots + PLT stubs) — the memory
// footprint Fig. 5a compares. Non-PIC modules carry no GOT/PLT; the PIC
// build's overhead is the table entries and stubs the loader creates.
func moduleSizes(seed int64, extraSynthetic int) ([]SizeRow, error) {
	var rows []SizeRow
	mods := map[string]func() *kcc.Module{}
	for n, mk := range drivers.All() {
		mods[n] = mk
	}
	synth := attack.GenerateCorpus(17, extraSynthetic, attack.DefaultCorpus)
	for _, s := range synth {
		s := s
		mods[s.Name] = func() *kcc.Module { return s }
	}
	names := make([]string, 0, len(mods))
	for n := range mods {
		names = append(names, n)
	}
	sort.Strings(names)
	loadedSize := func(mk func() *kcc.Module, o drivers.BuildOpts, mode kernel.KASLRMode) (uint64, error) {
		obj, err := drivers.Build(mk(), o)
		if err != nil {
			return 0, err
		}
		k, err := kernel.New(kernel.Config{NumCPUs: 1, Seed: seed, KASLR: mode})
		if err != nil {
			return 0, err
		}
		mod, err := k.Load(obj)
		if err != nil {
			return 0, err
		}
		return mod.ContentSize(), nil
	}
	for _, n := range names {
		plain, err := loadedSize(mods[n], drivers.BuildOpts{}, kernel.KASLRVanilla)
		if err != nil {
			return nil, err
		}
		pic, err := loadedSize(mods[n], drivers.BuildOpts{PIC: true, Retpoline: true}, kernel.KASLRFull64)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SizeRow{Module: n, VanillaBytes: plain, PICBytes: pic})
	}
	return rows, nil
}

var expFig5a = &Experiment{
	Name:   "fig5a",
	Figure: "Fig. 5a",
	Doc:    "module memory footprint, vanilla vs PIC+retpoline",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "synthetic corpus modules sized alongside the driver suite", Default: 8, Min: 1},
		{Name: "seed", Doc: "kernel boot seed", Default: seedFig5a},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := moduleSizes(p.Int64("seed"), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Fig. 5a — module size, vanilla vs PIC+retpoline (bytes)",
			Columns: []Column{
				Col("module", "%-12s", "%-12s"),
				Col("linux", "%10d", "%10s"),
				Col("pic", "%10d", "%10s"),
				Col("ratio", "%8.3f", "%8s"),
			},
		}
		for _, r := range rows {
			t.AddRow(r.Module, r.VanillaBytes, r.PICBytes,
				float64(r.PICBytes)/float64(r.VanillaBytes))
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		var ratio float64
		for _, r := range t.Rows {
			ratio += r[3].(float64)
		}
		return map[string]float64{"pic-size-ratio": ratio / float64(len(t.Rows))}
	},
}

// ---------------------------------------------------------------------------
// Fig. 5b — dd buffer-cache read microbenchmark.

// DDRow is one point of Fig. 5b. Insts/Cycles (vCPU 0's retired
// instructions and cycles over the run) and Blocks/ChainedBlocks/
// IndirectChained report the interpreter's counters for the run (the
// values TestDDChainRate pins); they ride along and are not part of the
// rendered figure.
type DDRow struct {
	Config          Config
	BlockKB         int
	MBps            float64
	Insts           uint64
	Cycles          uint64
	Blocks          uint64
	ChainedBlocks   uint64
	IndirectChained uint64
}

// DDBlockSizesKB is the sweep of Fig. 5b.
var DDBlockSizesKB = []int{4, 16, 64, 256, 1024}

// PICConfigs are the four §5.1 configurations.
var PICConfigs = []Config{CfgVanilla, CfgVanillaRet, CfgPIC, CfgPICRet}

// dd runs the cached-read microbenchmark: reads hit the buffer cache
// (CPU-bound, §5.1), with the ext4 module's get_block on the per-page
// path — where PIC and retpoline costs live.
func dd(seed int64, cfg Config, blockKB, ops int) (DDRow, error) {
	m, err := newMachine(cfg, seed, "ext4")
	if err != nil {
		return DDRow{}, err
	}
	defer m.Release()
	getBlock, err := callVA(m, "ext4_get_block")
	if err != nil {
		return DDRow{}, err
	}
	pages := blockKB / 4
	if pages == 0 {
		pages = 1
	}
	// Per-lane file positions: each simulated CPU reads its own
	// sequential stream, which is what the figure measures
	// (deterministic, since the engine's lane→op assignment is static).
	blks := make([]uint64, m.K.NumCPUs())
	op := func(c *cpu.CPU) (uint64, error) {
		blk := &blks[c.ID]
		for p := 0; p < pages; p++ {
			if _, err := c.Call(getBlock, 1, *blk%4096); err != nil {
				return 0, err
			}
			burn(c, PageCopyCost)
			*blk++
		}
		return 0, nil
	}
	c0 := m.K.CPU(0) // the one lane of a one-worker run
	insts, cycles := c0.Insts, c0.Cycles
	res, err := m.Run(sim.RunConfig{
		Ops: ops, Workers: 1, SyscallCycles: syscallCost(cfg),
		BytesPerOp: float64(blockKB) * 1024,
	}, op)
	if err != nil {
		return DDRow{}, err
	}
	return DDRow{Config: cfg, BlockKB: blockKB, MBps: res.MBPerSec,
		Insts: c0.Insts - insts, Cycles: c0.Cycles - cycles,
		Blocks: res.Blocks, ChainedBlocks: res.ChainedBlocks,
		IndirectChained: res.IndirectChained}, nil
}

// ddSweep runs the full Fig. 5b grid.
func ddSweep(seed int64, ops int) ([]DDRow, error) {
	var rows []DDRow
	for _, cfg := range PICConfigs {
		for _, bs := range DDBlockSizesKB {
			r, err := dd(seed, cfg, bs, ops)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

var expFig5b = &Experiment{
	Name:   "fig5b",
	Figure: "Fig. 5b",
	Doc:    "dd cached-read microbenchmark across the §5.1 configs",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "dd reads per configuration point", Default: 1600, Quick: 200, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig5b},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := ddSweep(p.Int64("seed"), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		cells := make([]matrixCell, len(rows))
		for i, r := range rows {
			cells[i] = matrixCell{fmt.Sprintf("%dKB", r.BlockKB), string(r.Config), r.MBps}
		}
		return matrixTable("Fig. 5b — dd cached-read microbenchmark (MB/s)", cells), nil
	},
	Headline: func(t *Table) map[string]float64 {
		v, _ := t.Cell("64KB", string(CfgPICRet))
		return map[string]float64{"dd64-picret-MBps": v}
	},
}

// ---------------------------------------------------------------------------
// Fig. 5c — sysbench file_io, cached random/sequential reads.

// SysbenchRow is one bar of Fig. 5c.
type SysbenchRow struct {
	Config Config
	Mode   string // "rndrd" or "seqrd"
	MBps   float64
}

// sysbench measures cached file_io throughput. Random reads pay an extra
// per-op block lookup and worse locality (modelled as an additional
// get_block call), matching sysbench's rndrd/seqrd split.
func sysbench(seed int64, cfg Config, mode string, ops int) (SysbenchRow, error) {
	m, err := newMachine(cfg, seed, "ext4")
	if err != nil {
		return SysbenchRow{}, err
	}
	defer m.Release()
	getBlock, err := callVA(m, "ext4_get_block")
	if err != nil {
		return SysbenchRow{}, err
	}
	const ioBytes = 16 * 1024
	// Per-lane streams and RNGs: the 4 workers are 4 simulated CPUs,
	// each with its own random-I/O stream.
	ncpu := m.K.NumCPUs()
	rngs := make([]*rand.Rand, ncpu)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(77 + int64(i)))
	}
	seqs := make([]uint64, ncpu)
	op := func(c *cpu.CPU) (uint64, error) {
		lane := c.ID
		lookups := 4 // 16 KB = 4 pages
		if mode == "rndrd" {
			lookups++ // extent lookup restarts on a random offset
		}
		for i := 0; i < lookups; i++ {
			blk := seqs[lane]
			if mode == "rndrd" {
				blk = uint64(rngs[lane].Intn(4096))
			}
			if _, err := c.Call(getBlock, 1, blk); err != nil {
				return 0, err
			}
			burn(c, PageCopyCost)
			seqs[lane]++
		}
		return 0, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: ops, Workers: 4, SyscallCycles: syscallCost(cfg),
		BytesPerOp: ioBytes,
	}, op)
	if err != nil {
		return SysbenchRow{}, err
	}
	return SysbenchRow{Config: cfg, Mode: mode, MBps: res.MBPerSec}, nil
}

// sysbenchSweep runs the Fig. 5c grid.
func sysbenchSweep(seed int64, ops int) ([]SysbenchRow, error) {
	var rows []SysbenchRow
	for _, cfg := range PICConfigs {
		for _, mode := range []string{"seqrd", "rndrd"} {
			r, err := sysbench(seed, cfg, mode, ops)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

var expFig5c = &Experiment{
	Name:   "fig5c",
	Figure: "Fig. 5c",
	Doc:    "sysbench file_io cached reads, sequential and random",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "file_io requests per configuration point", Default: 1200, Quick: 150, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig5c},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := sysbenchSweep(p.Int64("seed"), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		cells := make([]matrixCell, len(rows))
		for i, r := range rows {
			cells[i] = matrixCell{r.Mode, string(r.Config), r.MBps}
		}
		return matrixTable("Fig. 5c — sysbench file_io cached reads (MB/s)", cells), nil
	},
	Headline: func(t *Table) map[string]float64 {
		v, _ := t.Cell("rndrd", string(CfgPICRet))
		return map[string]float64{"rndrd-picret-MBps": v}
	},
}

// ---------------------------------------------------------------------------
// Fig. 5d — kernbench: kernel-space time of a compile-like syscall mix.

// KernbenchRow is one bar of Fig. 5d.
type KernbenchRow struct {
	Config      Config
	Concurrency int
	KernelSec   float64 // time spent in kernel space for the fixed job count
}

// KernbenchConcurrency levels: half, optimal and double the core count
// (kernbench's -o/-h convention).
var KernbenchConcurrency = []int{10, 20, 40}

// kernbench executes a fixed number of compile-like jobs, each a burst of
// syscalls (opens, cached reads, allocations) with module code on the
// path, and reports kernel-space seconds.
func kernbench(seed int64, cfg Config, concurrency, jobs int) (KernbenchRow, error) {
	m, err := newMachine(cfg, seed, "ext4", "fuse")
	if err != nil {
		return KernbenchRow{}, err
	}
	defer m.Release()
	getBlock, err := callVA(m, "ext4_get_block")
	if err != nil {
		return KernbenchRow{}, err
	}
	dispatch, err := callVA(m, "fuse_dispatch")
	if err != nil {
		return KernbenchRow{}, err
	}
	op := func(c *cpu.CPU) (uint64, error) {
		// One compilation unit: ~40 source reads + header lookups.
		for i := 0; i < 40; i++ {
			if _, err := c.Call(getBlock, 2, uint64(i)); err != nil {
				return 0, err
			}
			burn(c, CompileOpCost)
		}
		for i := 0; i < 6; i++ {
			if _, err := c.Call(dispatch, 1); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	res, err := m.Run(sim.RunConfig{
		Ops: jobs, Workers: concurrency, SyscallCycles: syscallCost(cfg) * 46,
	}, op)
	if err != nil {
		return KernbenchRow{}, err
	}
	kernelSec := float64(res.BusyCycles) / sim.CPUHz
	return KernbenchRow{Config: cfg, Concurrency: concurrency, KernelSec: kernelSec}, nil
}

// kernbenchSweep runs the Fig. 5d grid.
func kernbenchSweep(seed int64, jobs, maxConc int) ([]KernbenchRow, error) {
	var rows []KernbenchRow
	for _, cfg := range PICConfigs {
		for _, conc := range KernbenchConcurrency {
			if conc > maxConc {
				continue
			}
			r, err := kernbench(seed, cfg, conc, jobs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

var expFig5d = &Experiment{
	Name:   "fig5d",
	Figure: "Fig. 5d",
	Doc:    "kernbench kernel-space time of a compile-like syscall mix",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "compile jobs per configuration point", Default: 160, Quick: 20, Min: 1},
		{Name: "seed", Doc: "machine boot seed", Default: seedFig5d},
		{Name: "conc", Doc: "cap on the -j concurrency sweep", Default: 40},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := kernbenchSweep(p.Int64("seed"), p.Int("ops"), p.Int("conc"))
		if err != nil {
			return nil, err
		}
		cells := make([]matrixCell, len(rows))
		for i, r := range rows {
			cells[i] = matrixCell{fmt.Sprintf("-j%d", r.Concurrency), string(r.Config), r.KernelSec * 1000}
		}
		return matrixTable("Fig. 5d — kernbench kernel-space time (ms, fixed job count)", cells), nil
	},
	Headline: func(t *Table) map[string]float64 {
		v, _ := t.Cell("-j20", string(CfgPICRet))
		return map[string]float64{"j20-picret-kernel-ms": v}
	},
}
