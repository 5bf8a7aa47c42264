package main

import (
	"fmt"
	"io"
	"time"

	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/obs"
	"adelie/internal/sim"
	"adelie/internal/workload"
)

// buildOpts and the KASLR choice mirror the workload package's machine
// factory for the configurations the benchmark boots; the registry
// cross-checks fail if the two ever disagree.
var buildOpts = map[workload.Config]drivers.BuildOpts{
	workload.CfgVanillaRet:  {Retpoline: true},
	workload.CfgPICRet:      {PIC: true, Retpoline: true},
	workload.CfgRerand:      {PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true},
	workload.CfgRerandStack: {PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true, StackRerand: true},
}

// boot cold-boots the 20-vCPU testbed in configuration c with the listed
// drivers loaded.
func boot(c workload.Config, seed int64, queues int, driverNames ...string) (*sim.Machine, error) {
	opts, ok := buildOpts[c]
	if !ok {
		return nil, fmt.Errorf("no build options for config %q", c)
	}
	kaslr := kernel.KASLRFull64
	if c == workload.CfgVanillaRet {
		kaslr = kernel.KASLRVanilla
	}
	m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: seed, KASLR: kaslr, NICQueues: queues})
	if err != nil {
		return nil, err
	}
	for _, d := range driverNames {
		if _, err := m.LoadDriver(d, opts); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c, d, err)
		}
	}
	return m, nil
}

// counters is a snapshot of a machine's cumulative per-layer counters.
type counters struct {
	insts, blkHit, blkMiss, tlbHit, tlbMiss uint64
	cow, shootdowns                         int64
}

func readCounters(m *sim.Machine) counters {
	var c counters
	for i := 0; i < m.K.NumCPUs(); i++ {
		v := m.K.CPU(i)
		c.insts += v.Insts
		h, mi := v.BlockCacheStats()
		c.blkHit += h
		c.blkMiss += mi
		th, tm, _ := v.TLB.Stats()
		c.tlbHit += th
		c.tlbMiss += tm
	}
	c.cow = m.K.AS.Phys().COWDetaches()
	c.shootdowns = m.K.AS.Shootdowns()
	return c
}

func (c *counters) add(after, before counters) {
	c.insts += after.insts - before.insts
	c.blkHit += after.blkHit - before.blkHit
	c.blkMiss += after.blkMiss - before.blkMiss
	c.tlbHit += after.tlbHit - before.tlbHit
	c.tlbMiss += after.tlbMiss - before.tlbMiss
	c.cow += after.cow - before.cow
	c.shootdowns += after.shootdowns - before.shootdowns
}

// layerAcc accumulates the per-layer timers and counters of the
// sim.Machine.Run calls a traced phase makes.
type layerAcc struct {
	lt                        laneTimers
	ops, rounds               int
	runNs, batchNs            int64 // host time in Run, and in the timed batches around it
	ctr                       counters
	blocks, chained, ichained uint64
	rerandSteps               int
	irqs                      uint64
}

// runOn runs ops on m and returns the result with the simulated
// instructions the run retired. With acc non-nil the op closure and its
// cpu.Call invocations are timed and the run's counters accumulate into
// acc; obs attaches the simulator's own event tracer.
func runOn(m *sim.Machine, cfg sim.RunConfig, op sim.OpFunc, acc *layerAcc, obsOn bool) (sim.RunResult, uint64, error) {
	if obsOn {
		cfg.Trace = (&obs.TraceSession{}).Tracer("bench", m.K.NumCPUs())
	}
	before := readCounters(m)
	if acc == nil {
		res, err := m.Run(cfg, op)
		return res, readCounters(m).insts - before.insts, err
	}
	t0 := time.Now()
	res, err := m.Run(cfg, acc.lt.wrap(op))
	acc.runNs += int64(time.Since(t0))
	after := readCounters(m)
	acc.ctr.add(after, before)
	acc.ops += cfg.Ops
	if res.Lanes > 0 {
		acc.rounds += (cfg.Ops + res.Lanes - 1) / res.Lanes
	}
	acc.blocks += res.Blocks
	acc.chained += res.ChainedBlocks
	acc.ichained += res.IndirectChained
	acc.rerandSteps += res.RerandSteps
	acc.irqs += res.IRQs
	return res, after.insts - before.insts, err
}

// pct is 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// report sets the cpu, mm, engine, rerand and bus metrics from acc.
func (a *layerAcc) report(r *run) {
	var calls hist
	var opNs, opInsts int64
	var laneNs []float64
	for i := range a.lt.lane {
		l := &a.lt.lane[i]
		calls.merge(&l.call)
		opNs += l.opNs
		opInsts += int64(l.opInsts)
		if l.ops > 0 {
			laneNs = append(laneNs, float64(l.opNs))
		}
	}
	r.rec.addHist("cpu.Call", &calls)
	lane0 := float64(a.lt.lane[0].opNs)
	ops := float64(a.ops)

	r.set("cpu.call_us", float64(calls.totalNs)/float64(max(calls.n, 1))/1e3, int(calls.n), nil)
	r.set("cpu.op_share_pct", pct(lane0, float64(a.runNs)), a.rounds, nil)
	r.set("cpu.ns_per_inst", float64(opNs)/float64(max(opInsts, 1)), int(opInsts), nil)
	r.set("cpu.insts_per_op", float64(a.ctr.insts)/ops, a.ops, nil)
	r.set("cpu.chain_pct", pct(float64(a.chained), float64(a.blocks)), int(a.blocks), nil)
	r.set("cpu.ichain_pct", pct(float64(a.ichained), float64(a.blocks)), int(a.blocks), nil)
	r.set("cpu.block_miss_pct", pct(float64(a.ctr.blkMiss), float64(a.ctr.blkHit+a.ctr.blkMiss)), int(a.ctr.blkHit+a.ctr.blkMiss), nil)
	r.set("mm.tlb_miss_pct", pct(float64(a.ctr.tlbMiss), float64(a.ctr.tlbHit+a.ctr.tlbMiss)), int(a.ctr.tlbHit+a.ctr.tlbMiss), nil)
	r.set("mm.cow_detaches_per_op", float64(a.ctr.cow)/ops, a.ops, nil)
	r.set("mm.shootdowns_per_op", float64(a.ctr.shootdowns)/ops, a.ops, nil)
	r.set("engine.residual_us_per_round", (float64(a.runNs)-lane0)/float64(max(a.rounds, 1))/1e3, a.rounds, nil)
	skew := 0.0
	if len(laneNs) > 1 {
		lo, hi := laneNs[0], laneNs[0]
		for _, v := range laneNs {
			lo, hi = min(lo, v), max(hi, v)
		}
		skew = pct(hi-lo, hi)
	}
	r.set("engine.lane_skew_pct", skew, len(laneNs), nil)
	r.set("rerand.steps_per_kop", 1000*float64(a.rerandSteps)/ops, a.ops, nil)
	r.set("bus.irqs_per_op", float64(a.irqs)/ops, a.ops, nil)
	if a.batchNs > 0 {
		fmt.Fprintf(r.stderr, "bench: %s: op closures %.1f%% and engine residual %.1f%% of sim.Machine.Run time; Run is %.1f%% of the timed batches\n",
			r.workload, pct(lane0, float64(a.runNs)), 100-pct(lane0, float64(a.runNs)), pct(float64(a.runNs), float64(a.batchNs)))
	}
}

// shape is a workload's machine: how to cold-boot its template, and how
// to ready a fork of it for the rerand and interrupt probes (returning
// the interrupt line to dispatch).
type shape struct {
	boot  func() (*sim.Machine, error)
	ready func(f *sim.Machine) (line int, err error)
}

// Probe sizes: enough calls for a stable median, few enough that the
// probes add well under a second to a traced run.
const (
	probeBoots = 4
	probeForks = 16
	probeSteps = 32
)

// probeSim times the sim, rerand and kernel layers' calls on the
// workload's own machine shape: NewMachine+LoadDriver, Snapshot, Fork and
// Release, then rerand.Randomizer.Step and kernel.DispatchIRQ on a
// readied fork.
func probeSim(r *run, sh shape, parent uint64) error {
	var boots, snaps, forks, rels, steps, isrs []float64
	for i := 0; i < probeBoots; i++ {
		sp := r.rec.start("sim", "boot", 0, parent, 0)
		m, err := sh.boot()
		boots = append(boots, ms(sp.end()))
		if err != nil {
			return err
		}
		sp = r.rec.start("sim", "snapshot", 0, parent, 0)
		err = m.Snapshot()
		snaps = append(snaps, ms(sp.end()))
		if err != nil {
			return err
		}
		for j := 0; j < probeForks; j++ {
			sp = r.rec.start("sim", "fork", 0, parent, 0)
			f, err := m.Fork()
			forks = append(forks, usf(sp.end()))
			if err != nil {
				return err
			}
			if i == 0 && j == 0 {
				line, err := sh.ready(f)
				if err != nil {
					return err
				}
				for k := 0; k < probeSteps; k++ {
					sp = r.rec.start("rerand", "Step", 0, parent, 0)
					_, err := f.R.Step()
					steps = append(steps, usf(sp.end()))
					if err != nil {
						return err
					}
					sp = r.rec.start("kernel", "DispatchIRQ", 0, parent, 0)
					_, err = f.K.DispatchIRQ(f.K.CPU(0), line)
					isrs = append(isrs, usf(sp.end()))
					if err != nil {
						return err
					}
				}
			}
			sp = r.rec.start("sim", "release", 0, parent, 0)
			f.Release()
			rels = append(rels, usf(sp.end()))
		}
		m.Release()
	}
	r.set("sim.boot_ms", median(boots), len(boots), boots)
	r.set("sim.snapshot_ms", median(snaps), len(snaps), snaps)
	r.set("sim.fork_us", median(forks), len(forks), forks)
	r.set("sim.release_us", median(rels), len(rels), rels)
	r.set("rerand.step_us", median(steps), len(steps), steps)
	r.set("kernel.isr_us", median(isrs), len(isrs), isrs)
	return nil
}

// nicLine is the server adapter's first interrupt line.
func nicLine(m *sim.Machine) (int, error) {
	lines := m.Bus.IRQLines("nic0")
	if len(lines) == 0 {
		return 0, fmt.Errorf("nic0 has no interrupt line")
	}
	return lines[0], nil
}

func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func usf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Workload-layer probe sizes.
const (
	pointRuns  = 3
	renderRuns = 200
)

// probes measures, after a dd or server traced run's timed phase, the
// layers its measured path does not call: the sim lifecycle and the
// rerand and kernel probes on its machine shape, the registered
// experiment it is cross-checked against (workload.point_ms) and that
// table's rendering, and the service's fixed cost on a no-op experiment.
func (r *run) probes(sh shape, point func() (*workload.Table, error)) error {
	sp := r.rec.start("bench", "probes", 0, 0, 0)
	defer sp.end()
	if err := probeSim(r, sh, sp.id()); err != nil {
		return err
	}
	var pts []float64
	var t *workload.Table
	for i := 0; i < pointRuns; i++ {
		p := r.rec.start("workload", "Experiment.Run", 0, sp.id(), 0)
		var err error
		t, err = point()
		pts = append(pts, ms(p.end()))
		if err != nil {
			return err
		}
	}
	r.set("workload.point_ms", median(pts), len(pts), pts)
	renderProbe(r, t)
	return noopProbe(r, sp.id())
}

// renderProbe times Table.Fprint of t.
func renderProbe(r *run, t *workload.Table) {
	xs := make([]float64, renderRuns)
	for i := range xs {
		t0 := time.Now()
		t.Fprint(io.Discard)
		xs[i] = usf(time.Since(t0))
	}
	r.set("workload.render_us", median(xs), len(xs), xs)
}
