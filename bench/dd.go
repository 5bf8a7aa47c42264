package main

import (
	"fmt"
	"time"

	"adelie/internal/cpu"
	"adelie/internal/sim"
	"adelie/internal/workload"
)

// dd-hot: cached 64 KB reads on one warm pic+ret machine with ext4 loaded
// and one engine lane, the op composed from public calls exactly as the
// workload package's dd does it. Nearly all of its Run time is inside
// cpu.CPU.Call; fork, interrupt, rerand and service code never run.
const (
	ddBlockKB    = 64
	ddPages      = ddBlockKB / 4
	ddFileBlocks = 4096 // file blocks; the position wraps around them
	ddWarmup     = 1600 // reads before timing: block and chain caches warm
	ddCheckOps   = 200  // the fig5b run the composed op must reproduce
	// ddBatch reads cover the file once: ext4_get_block's cost depends on
	// the extent a block is in, so a batch of any other size would retire
	// a different number of instructions depending on where it starts,
	// and the fastest batches would be the cheapest, not the calmest. So
	// sized, read i of every batch also reads the same blocks.
	ddBatch = ddFileBlocks / ddPages
)

type ddRig struct {
	m        *sim.Machine
	getBlock uint64
	blks     []uint64    // per-lane file position
	lt       *laneTimers // set for timed runs
	starts   []time.Time // when each read started; nil when reads are not timed
}

func bootDD(seed int64) (*sim.Machine, error) {
	return boot(workload.CfgPICRet, seed, 1, "ext4")
}

func newDDRig(seed int64) (*ddRig, error) {
	m, err := bootDD(seed)
	if err != nil {
		return nil, err
	}
	va, ok := m.K.Symbol("ext4_get_block")
	if !ok {
		return nil, fmt.Errorf("ext4_get_block not exported")
	}
	return &ddRig{m: m, getBlock: va, blks: make([]uint64, m.K.NumCPUs())}, nil
}

func (d *ddRig) op(c *cpu.CPU) (uint64, error) {
	if d.starts != nil {
		d.starts = append(d.starts, time.Now())
	}
	blk := &d.blks[c.ID]
	for p := 0; p < ddPages; p++ {
		if _, err := d.lt.call(c, d.getBlock, 1, *blk%ddFileBlocks); err != nil {
			return 0, err
		}
		c.Cycles += workload.PageCopyCost
		*blk++
	}
	return 0, nil
}

func (d *ddRig) run(ops int, acc *layerAcc, obs bool) (sim.RunResult, uint64, error) {
	d.lt = nil
	if acc != nil {
		d.lt = &acc.lt
	}
	cfg := sim.RunConfig{
		Ops: ops, Workers: 1, SyscallCycles: workload.SyscallEntry + workload.RetpolineKernelTax,
		BytesPerOp: ddBlockKB * 1024,
	}
	return runOn(d.m, cfg, d.op, acc, obs)
}

func runDD(r *run) error {
	dg := newDigest()
	// The composed op on a fresh machine must reproduce the registered
	// fig5b 64KB pic+ret cell at this seed, bit for bit.
	check := func() (*workload.Table, error) {
		return registryRun("fig5b", false, fmt.Sprintf("seed=%d", r.seed), fmt.Sprintf("ops=%d", ddCheckOps))
	}
	tab, err := check()
	if err != nil {
		return err
	}
	want, ok := tab.Cell(fmt.Sprintf("%dKB", ddBlockKB), string(workload.CfgPICRet))
	if !ok {
		return fmt.Errorf("fig5b has no %dKB/%s cell", ddBlockKB, workload.CfgPICRet)
	}
	fresh, err := newDDRig(r.seed)
	if err != nil {
		return err
	}
	res, insts, err := fresh.run(ddCheckOps, nil, false)
	if err != nil {
		return err
	}
	r.attempt(ddCheckOps)
	if res.MBPerSec != want {
		r.problem(ddCheckOps, "composed dd: %v MB/s, registered fig5b cell %v", res.MBPerSec, want)
	}
	dg.add("fig5b-cell mbps=%v busy=%d insts=%d", res.MBPerSec, res.BusyCycles, insts)

	var rig *ddRig
	setup := func() error {
		var err error
		if rig, err = newDDRig(r.seed); err != nil {
			return err
		}
		_, _, err = rig.run(ddWarmup, nil, false)
		return err
	}
	if err := setup(); err != nil {
		return err
	}
	// The first batch after set-up is deterministic: pin it.
	res, insts, err = rig.run(ddBatch, nil, false)
	if err != nil {
		return err
	}
	r.attempt(ddBatch)
	dg.add("batch0 mbps=%v busy=%d insts=%d", res.MBPerSec, res.BusyCycles, insts)
	r.checkDigest(dg)

	// A timed batch stamps each read's start: a read's host time runs to
	// the next read's start, so it includes the engine's round after it.
	// The last read of a batch has no next and gives no sample.
	starts := make([]time.Time, 0, ddBatch)
	reads := make([]float64, 0, ddBatch-1)
	batch := func(acc *layerAcc, obs bool, parent uint64) (batchOut, error) {
		rig.starts = starts[:0]
		sp := r.rec.start("sim", "Run", 0, parent, 0)
		_, insts, err := rig.run(ddBatch, acc, obs)
		sp.end()
		reads = intervals(reads[:0], rig.starts)
		rig.starts = nil
		return batchOut{ops: ddBatch, insts: insts, lat: reads}, err
	}
	if !r.traced() {
		return r.segmented(setup, r.endToEnd(batch), nil)
	}
	acc := &layerAcc{}
	if _, err := r.tracedBatches(batch, acc); err != nil {
		return err
	}
	acc.report(r)
	r.set("sim.forks_per_op", 0, acc.ops, nil)
	r.set("sim.cold_boots", 0, 0, nil)
	r.set("workload.worker_busy_pct", 0, 0, nil)
	sh := shape{boot: func() (*sim.Machine, error) { return bootDD(r.seed) }, ready: nicLine}
	return r.probes(sh, check)
}
