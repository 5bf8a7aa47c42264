package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"adelie/internal/cpu"
	"adelie/internal/engine"
	"adelie/internal/sim"
	"adelie/internal/workload"
)

// server-rerand: request/response batches, each on a fresh fork of a
// rerand+stack template with the multi-queue NIC, NVMe and its completion
// interrupt loaded, composed like the workload package's server
// experiment: a 10 µs load-generator actor, two engine lanes, and every
// module moved each simulated millisecond.
const (
	serverQueues   = 2
	serverLanes    = 2
	serverRing     = 64
	serverBatch    = 500 // requests per batch (one fork each)
	serverCheckOps = 60  // the server run the composed op must reproduce
	serverPeriodUs = 1000
	// serverAppCost is the server experiment's per-request application
	// work; the registry cross-check fails if it drifts.
	serverAppCost = 40_000
)

func bootServer(seed int64) (*sim.Machine, error) {
	return boot(workload.CfgRerandStack, seed, serverQueues, "e1000emq", "nvme", "nvmeirq")
}

// serverFork is a fork with the drivers initialized and the op's handles
// resolved.
type serverFork struct {
	m              *sim.Machine
	readVA, xmitVA uint64
	bufs           []uint64
	starts         *[]time.Time // when each round's lane-0 request started; nil when not timed
}

func readyServer(m *sim.Machine) (*serverFork, error) {
	if _, err := m.InitNICMQ("e1000emq", serverRing, serverQueues); err != nil {
		return nil, err
	}
	if err := m.InitNVMe(); err != nil {
		return nil, err
	}
	if err := m.InitNVMeIRQ(serverQueues - 1); err != nil {
		return nil, err
	}
	m.NVMe.Preload(9, []byte("server block"))
	s := &serverFork{m: m, bufs: make([]uint64, m.K.NumCPUs())}
	var ok bool
	if s.readVA, ok = m.K.Symbol("nvme_read"); !ok {
		return nil, fmt.Errorf("nvme_read not exported")
	}
	if s.xmitVA, ok = m.K.Symbol("e1000emq_xmit"); !ok {
		return nil, fmt.Errorf("e1000emq_xmit not exported")
	}
	for i := range s.bufs {
		var err error
		if s.bufs[i], err = m.K.Kmalloc(2048); err != nil {
			return nil, err
		}
	}
	if _, err := m.K.CPU(0).Call(s.readVA, s.bufs[0], 9, 512); err != nil {
		return nil, err
	}
	return s, nil
}

// serverOut is a batch's simulated output: the server experiment's row
// and the run's cycle, instruction and rerand counts.
type serverOut struct {
	rps, p99Us  float64
	irqs        uint64
	irqVCPUs    int
	responses   uint64
	busy, insts uint64
	rerandSteps int
}

func (s *serverFork) run(ops int, acc *layerAcc, obs bool) (serverOut, error) {
	m := s.m
	ncpu := m.K.NumCPUs()
	frame := make([]byte, 256)
	for i := range frame {
		frame[i] = byte(i)
	}
	var reqSeq uint64
	loadgen := engine.Actor{Name: "server-loadgen", PeriodUs: 10, Step: func() error {
		frame[0] = byte(reqSeq)
		reqSeq++
		m.NIC.Deliver(frame)
		return nil
	}}
	var lt *laneTimers
	if acc != nil {
		lt = &acc.lt
	}
	frames := make([]uint64, ncpu)
	lats := make([][]uint64, ncpu)
	slotsPerLane := uint64(serverRing / min(serverLanes, ncpu))
	syscall := uint64(workload.SyscallEntry + workload.RetpolineKernelTax)
	op := func(c *cpu.CPU) (uint64, error) {
		lane := c.ID
		if lane == 0 && s.starts != nil {
			*s.starts = append(*s.starts, time.Now())
		}
		start := c.Cycles
		c.Cycles += serverAppCost
		lat, err := lt.call(c, s.readVA, s.bufs[lane], 9, 512)
		if err != nil {
			return 0, err
		}
		if lat == 0 {
			return 0, fmt.Errorf("server: nvme read failed")
		}
		slot := uint64(lane)*slotsPerLane + frames[lane]%slotsPerLane
		if _, err := lt.call(c, s.xmitVA, s.bufs[lane], 256, slot); err != nil {
			return 0, err
		}
		frames[lane]++
		lats[lane] = append(lats[lane], c.Cycles-start+lat+syscall)
		return lat, nil
	}
	res, insts, err := runOn(m, sim.RunConfig{
		Ops: ops, Workers: serverLanes, SyscallCycles: syscall, BytesPerOp: 256,
		RerandPeriodUs: serverPeriodUs, Actors: []engine.Actor{loadgen},
	}, op, acc, obs)
	if err != nil {
		return serverOut{}, err
	}
	var all []uint64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var p99 uint64
	if len(all) > 0 {
		p99 = all[min(len(all)*99/100, len(all)-1)]
	}
	return serverOut{
		rps: res.OpsPerSec, p99Us: float64(p99) / sim.CPUHz * 1e6,
		irqs: res.IRQs, irqVCPUs: res.IRQVCPUs(), responses: m.Peer.RxFrames,
		busy: res.BusyCycles, insts: insts, rerandSteps: res.RerandSteps,
	}, nil
}

// forkRun forks the template, readies the fork, runs ops requests on it
// and releases it. With starts non-nil it appends when each round's
// lane-0 request started.
func forkRun(tmpl *sim.Machine, ops int, acc *layerAcc, obs bool, starts *[]time.Time) (serverOut, error) {
	f, err := tmpl.Fork()
	if err != nil {
		return serverOut{}, err
	}
	defer f.Release()
	s, err := readyServer(f)
	if err != nil {
		return serverOut{}, err
	}
	s.starts = starts
	return s.run(ops, acc, obs)
}

func bootServerTemplate(seed int64) (*sim.Machine, error) {
	m, err := bootServer(seed)
	if err != nil {
		return nil, err
	}
	return m, m.Snapshot()
}

func runServer(r *run) error {
	dg := newDigest()
	// The composed op on a fork must reproduce the registered server
	// experiment's queues=2 row at this seed, bit for bit.
	check := func() (*workload.Table, error) {
		return registryRun("server", false, fmt.Sprintf("seed=%d", r.seed), fmt.Sprintf("queues=%d", serverQueues),
			fmt.Sprintf("workers=%d", serverLanes), fmt.Sprintf("ops=%d", serverCheckOps))
	}
	tab, err := check()
	if err != nil {
		return err
	}
	checkTmpl, err := bootServerTemplate(r.seed)
	if err != nil {
		return err
	}
	out, err := forkRun(checkTmpl, serverCheckOps, nil, false, nil)
	checkTmpl.Release()
	if err != nil {
		return err
	}
	r.attempt(serverCheckOps)
	got := []any{serverQueues, out.rps, out.p99Us, out.irqs, out.irqVCPUs, out.responses}
	if len(tab.Rows) < 2 || !slices.Equal(tab.Rows[1], got) {
		r.problem(serverCheckOps, "composed server run %v, registered server rows %v", got, tab.Rows)
	}
	dg.add("server-row %v busy=%d insts=%d steps=%d", got, out.busy, out.insts, out.rerandSteps)

	// Set-up boots the template and runs one batch on a fork of it; the
	// first set-up's batch is the reference every later batch must equal.
	// A request's host time is its round's, from the start of the round's
	// lane-0 request to the next round's: both lanes' requests finish at
	// the round's barrier. The last round has no next and gives no sample.
	var tmpl *sim.Machine
	var first *serverOut
	starts := make([]time.Time, 0, serverBatch/serverLanes)
	rounds := make([]float64, 0, serverBatch/serverLanes)
	batch := func(acc *layerAcc, obs bool, parent uint64) (batchOut, error) {
		starts = starts[:0]
		sp := r.rec.start("sim", "Fork+Run", 0, parent, 0)
		out, err := forkRun(tmpl, serverBatch, acc, obs, &starts)
		sp.end()
		switch {
		case err != nil:
		case first == nil:
			first = &out
		case out != *first:
			r.problem(serverBatch, "batch output %+v differs from the first batch %+v", out, *first)
		}
		rounds = intervals(rounds[:0], starts)
		return batchOut{ops: serverBatch, insts: out.insts, lat: rounds}, err
	}
	setup := func() error {
		var err error
		if tmpl, err = bootServerTemplate(r.seed); err != nil {
			return err
		}
		out, err := batch(nil, false, 0)
		r.attempt(out.ops)
		return err
	}
	release := func() error {
		tmpl.Release()
		return nil
	}
	if err := setup(); err != nil {
		return err
	}
	dg.add("batch %+v", *first)
	r.checkDigest(dg)
	if !r.traced() {
		tmpl.Release()
		return r.segmented(setup, r.endToEnd(batch), release)
	}
	defer tmpl.Release()
	acc := &layerAcc{}
	timed, err := r.tracedBatches(batch, acc)
	if err != nil {
		return err
	}
	acc.report(r)
	r.set("sim.forks_per_op", float64(len(timed.done))/float64(timed.ops), timed.ops, nil)
	r.set("sim.cold_boots", 0, 0, nil)
	r.set("workload.worker_busy_pct", 0, 0, nil)
	sh := shape{
		boot: func() (*sim.Machine, error) { return bootServer(r.seed) },
		ready: func(f *sim.Machine) (int, error) {
			if _, err := readyServer(f); err != nil {
				return 0, err
			}
			return nicLine(f)
		},
	}
	return r.probes(sh, check)
}
