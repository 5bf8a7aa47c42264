package main

import (
	"fmt"
	"time"

	"adelie/internal/cpu"
	"adelie/internal/sim"
	"adelie/internal/workload"
)

// ioctlRig composes fig9's null-ioctl points from public calls, one
// frozen template per variant and a fresh fork per point, as the fork
// pool serves the registered experiment. The sweep and service workloads
// run the registered fig9 itself, whose machines the benchmark cannot
// see; the rig reproduces its tables bit for bit, which gives the
// simulated instructions a fig9 run retires (sim_mips) and the cpu,
// engine and mm timings of its Run calls (traced runs).
type ioctlRig struct {
	tmpl []*sim.Machine // workload.IoctlVariants order
}

func bootIoctl(c workload.Config, seed int64) (*sim.Machine, error) {
	return boot(c, seed, 1, "dummy")
}

func newIoctlRig(seed int64) (*ioctlRig, error) {
	x := &ioctlRig{}
	for _, v := range workload.IoctlVariants {
		m, err := bootIoctl(v.Cfg, seed)
		if err != nil {
			return nil, err
		}
		if err := m.Snapshot(); err != nil {
			return nil, err
		}
		x.tmpl = append(x.tmpl, m)
	}
	return x, nil
}

func (x *ioctlRig) release() {
	for _, m := range x.tmpl {
		m.Release()
	}
}

// point runs variant v's fig9 point: ops null ioctls on a fresh fork.
func (x *ioctlRig) point(v, ops int, acc *layerAcc) (mops float64, insts uint64, err error) {
	f, err := x.tmpl[v].Fork()
	if err != nil {
		return 0, 0, err
	}
	defer f.Release()
	va, ok := f.K.Symbol("dummy_ioctl")
	if !ok {
		return 0, 0, fmt.Errorf("dummy_ioctl not exported")
	}
	var lt *laneTimers
	if acc != nil {
		lt = &acc.lt
	}
	op := func(c *cpu.CPU) (uint64, error) {
		ret, err := lt.call(c, va, 0)
		if err != nil {
			return 0, err
		}
		if ret != 0 {
			return 0, fmt.Errorf("ioctl returned %d", int64(ret))
		}
		return 0, nil
	}
	res, insts, err := runOn(f, sim.RunConfig{Ops: ops, Workers: 1, SyscallCycles: workload.SyscallEntry}, op, acc, false)
	return res.OpsPerSec / 1e6, insts, err
}

// verify checks a fig9 table run at ops against the composed points and
// returns the simulated instructions the table's runs retired.
func (x *ioctlRig) verify(t *workload.Table, ops int, acc *layerAcc) (uint64, error) {
	if len(t.Rows) != len(workload.IoctlVariants) {
		return 0, fmt.Errorf("fig9 table has %d rows, want %d", len(t.Rows), len(workload.IoctlVariants))
	}
	var total uint64
	for i, v := range workload.IoctlVariants {
		mops, insts, err := x.point(i, ops, acc)
		if err != nil {
			return 0, err
		}
		if t.Rows[i][0] != v.Name || t.Rows[i][1] != mops {
			return 0, fmt.Errorf("fig9 ops=%d %s: table row %v, composed %v Mops/s", ops, v.Name, t.Rows[i][:2], mops)
		}
		total += insts
	}
	return total, nil
}

// replicaLayers runs the composed fig9 points at each ops value, over and
// over for secs, timing their Run calls into acc.
func (x *ioctlRig) replicaLayers(ops []int64, secs float64, acc *layerAcc) error {
	start := time.Now()
	for time.Since(start).Seconds() < secs || acc.ops == 0 {
		for _, n := range ops {
			for v := range x.tmpl {
				if _, _, err := x.point(v, int(n), acc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fig9Shape is the machine the sweep and service workloads fork most:
// the rerand-capable wrappers+stack variant, so the rerand probe moves
// real modules.
func fig9Shape(seed int64) shape {
	return shape{
		boot:  func() (*sim.Machine, error) { return bootIoctl(workload.CfgRerandStack, seed) },
		ready: nicLine,
	}
}

// timedExperiment wraps a registered experiment so the benchmark sees
// each of its runs: extra declares parameters the wrapper accepts on top
// of the experiment's own, and onRun, when non-nil, receives the params
// and when the wrapped run started and ended.
func timedExperiment(e *workload.Experiment, extra []workload.ParamSpec, onRun func(p workload.Params, start, end time.Time)) *workload.Experiment {
	w := *e
	w.ParamSpecs = append(append([]workload.ParamSpec(nil), e.ParamSpecs...), extra...)
	w.Run = func(p workload.Params) (*workload.Table, error) {
		inner := e.Params(false)
		for _, s := range e.ParamSpecs {
			if err := inner.Set(s.Name, p.Int64(s.Name)); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		t, err := e.Run(inner)
		if onRun != nil {
			onRun(p, t0, time.Now())
		}
		return t, err
	}
	return &w
}
