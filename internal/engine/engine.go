// Package engine is the execution engine behind sim.Machine.Run: it
// schedules benchmark operations across a machine's vCPUs under a
// deterministic barrier-synchronized virtual clock.
//
// Execution model. The Ops operations of a measurement are dealt
// round-robin onto lanes (lane l runs ops l, l+lanes, l+2·lanes, …, on
// vCPU l), where lanes = min(Workers, NumCPUs, Ops). A round runs one op
// per lane, then hits a barrier. Within a round the lanes run on the
// caller's goroutine in lane order, each interpreting real driver code
// on its own vCPU; the engine starts no goroutine. At the barrier the
// engine replays the round's per-op costs into the closed-queueing model
// in op order, advancing the virtual clock and firing clocked actors
// (the re-randomizer kthread) whose deadlines were crossed. Actors
// therefore mutate the address space only between rounds. Lane→op
// assignment is static, lane order is fixed, and every cross-lane
// mutation happens at a barrier, so a run is bit-reproducible and its
// determinism does not depend on host scheduling.
//
// The lanes model an SMP machine, and the figures are defined by that
// model: each lane keeps its own vCPU state (TLB, block cache, stacks,
// cycle counters), guest code keeps per-CPU state keyed by
// smp_processor_id (see internal/drivers), devices with per-slot queues
// snapshot at round boundaries, and workloads keep any host-side closure
// state per lane (indexed by cpu.CPU.ID). None of this is host locking;
// it is what the measured machine is. One rule follows from serial
// lanes: a guest op must not wait within a round on another lane (a spin
// on a flag another lane sets in the same round would never end), since
// that lane runs only after it returns. No registered experiment does
// this; cross-lane hand-offs go through the barrier.
//
// Host parallelism lives one level up: fork-parallel sweeps and the
// service pool run whole machines at once, so the locks and atomics that
// guard what machines share (frame refcounts, the address-space lock,
// the lazy vCPU clone) stay.
//
// Interrupts. When the engine drives a machine assembled on a device
// bus, lines raised by devices during a round (NIC RX coalescing, see
// internal/bus) are delivered only here, at the round barrier: after the
// accounting pass, the engine publishes the virtual clock to the bus,
// ticks coalescing timers, drains the pending vector set and dispatches
// it serially in (vCPU, line) order — the lines routed to one vCPU form
// a group run on that vCPU's cpu.CPU — then commits the accounting
// and, when traced, the ISR spans in the same order. A machine whose
// vectors all route to vCPU 0 (the default) dispatches one group,
// bit-identical to the pre-vector-table engine. Because raising is
// commutative, routes only change between rounds, and delivery happens
// at the barrier in a fixed order, interrupt side effects — ISR cycles,
// ring drains, driver counters — are bit-reproducible. The window's device work is
// proportional to the work the devices hold: when no ticker is armed and
// no line is pending (bus.Bus.Quiet, a few atomic loads), the window
// returns right after publishing the clock, the forced final flush
// included. The clock is still published at every barrier, because
// devices stamp work raised in the next round with it. Epoch devices
// likewise flip their epoch state without a lock on a round that
// buffered nothing, so a quiet round takes no device lock at all.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"adelie/internal/bus"
	"adelie/internal/cpu"
	"adelie/internal/kernel"
	"adelie/internal/obs"
	"adelie/internal/rerand"
)

// CPUHz is the nominal clock of the simulated testbed (Table 1).
const CPUHz = 2.2e9

// OpFunc executes one benchmark operation on the vCPU, returning the
// device wait in cycles (time the CPU is idle on I/O) and any fault.
type OpFunc func(c *cpu.CPU) (waitCycles uint64, err error)

// EpochDevice is a device with round-granular (epoch) state semantics;
// see bus.EpochDevice. The engine discovers epoch devices by interface
// assertion over the machine's bus (this alias keeps older call sites
// compiling).
type EpochDevice = bus.EpochDevice

// RunConfig parameterizes a measurement.
type RunConfig struct {
	Ops            int     // operations to execute (sampled ops = all)
	Workers        int     // concurrent clients (Figs. 7/8 sweeps)
	RerandPeriodUs float64 // re-randomization period; 0 = disabled
	SyscallCycles  uint64  // fixed kernel entry/exit + core-kernel path cost per op
	BytesPerOp     float64 // payload size (for MB/s and the wire cap)
	WireBps        float64 // wire bandwidth cap; 0 = none

	// Actors are extra clocked actors scheduled on the measurement's
	// virtual clock alongside the re-randomizer — e.g. a load generator
	// injecting frames into a NIC. They fire during the accounting pass
	// at round barriers, so their mutations are deterministic.
	Actors []Actor

	// Trace, when non-nil, receives the measurement's cycle-stamped
	// event stream: per-lane round retire summaries, TLB refill and
	// device counter deltas, IRQ raise→deliver→ISR-done, rerand epochs
	// and copy-on-write detaches, all emitted from the single-threaded
	// barrier passes and merged in deterministic (clock, track, seq)
	// order. Tracing never changes a figure — no event charges cycles
	// or touches guest state — and the merged stream is byte-identical
	// run to run for the same seed.
	Trace *obs.Tracer

	// Profile, when non-nil, aggregates virtual-clock samples for this
	// run. The engine does not consume it directly: sim.Machine.Run
	// attaches per-vCPU samplers symbolized against its kernel before
	// delegating here (the field rides on RunConfig so callers opt in
	// at the same place they opt into tracing).
	Profile *obs.Profiler
}

// RunResult is one measured configuration — a point on a §5 figure.
type RunResult struct {
	OpsPerSec     float64
	MBPerSec      float64
	CPUUsagePct   float64 // across all vCPUs, as the paper reports
	AvgOpMicros   float64
	ElapsedSec    float64
	BusyCycles    uint64 // interpreted + charged kernel cycles
	WaitCycles    uint64 // device wait
	RerandCycles  uint64 // randomizer thread work
	RerandSteps   int
	Lanes         int    // vCPUs that physically executed operations
	Blocks        uint64 // basic blocks retired by lanes (superblock execution)
	ChainedBlocks uint64 // blocks entered via trace links, no dispatch-loop return

	// IndirectChained is the subset of ChainedBlocks entered through the
	// monomorphic indirect-branch target cache (RET/indirect exits whose
	// dynamic target matched the cached successor).
	IndirectChained uint64
	IRQs            uint64 // ISR dispatches delivered at clock boundaries
	IRQCycles       uint64 // cycles spent in ISRs (counted into CPU usage)

	// Per-vCPU delivery breakdown (index = vCPU; nil when the machine has
	// no bus). The aggregate IRQs/IRQCycles fields are kept for
	// compatibility and always equal the slice sums.
	IRQsPerLane      []uint64
	IRQCyclesPerLane []uint64
}

// IRQVCPUs counts the vCPUs that handled at least one interrupt — the
// observable spread of the vector table's routing.
func (r *RunResult) IRQVCPUs() int {
	n := 0
	for _, c := range r.IRQsPerLane {
		if c > 0 {
			n++
		}
	}
	return n
}

// Process-wide engine and re-randomizer counters, resolved once so a
// run's end and a rerand step add to them without the registry lock.
var (
	mRuns            = obs.Default.Counter("adelie_engine_runs_total")
	mOps             = obs.Default.Counter("adelie_engine_ops_total")
	mBusyCycles      = obs.Default.Counter("adelie_engine_busy_cycles_total")
	mBlocks          = obs.Default.Counter("adelie_engine_blocks_total")
	mChainedBlocks   = obs.Default.Counter("adelie_engine_chained_blocks_total")
	mIndirectChained = obs.Default.Counter("adelie_engine_indirect_chained_total")
	mIRQs            = obs.Default.Counter("adelie_engine_irqs_total")
	mIRQCycles       = obs.Default.Counter("adelie_engine_irq_cycles_total")

	mRerandEpochs        = obs.Default.Counter("adelie_rerand_epochs_total")
	mRerandModulesMoved  = obs.Default.Counter("adelie_rerand_modules_moved_total")
	mRerandPagesRemapped = obs.Default.Counter("adelie_rerand_pages_remapped_total")
)

// Engine drives measurements against one booted kernel.
type Engine struct {
	K     *kernel.Kernel
	R     *rerand.Randomizer // optional; stepped as a clocked actor
	Bus   *bus.Bus           // optional; devices, epoch set, interrupts
	Epoch []EpochDevice      // devices needing round-granular determinism

	// Trace state for the current Run (nil / unused when the run is not
	// traced). Set at Run entry, cleared on return; serviceIRQs reads it
	// to stamp raise/deliver/ISR events.
	tr      *obs.Tracer
	trIRQ   int // "irq" track id (device-side raise timeline)
	trMM    int // "mm" track id (fork / COW-detach events)
	devObs  []engineDevObs
	tlbPrev []uint64
	cowPrev int64

	// Interrupt-window buffers, reused from window to window so a
	// barrier allocates nothing once they have grown.
	pending []bus.PendingIRQ
	dels    []delivery
}

// delivery is one ISR dispatch's outcome, committed after its window's
// dispatch loop.
type delivery struct {
	handled bool
	cycles  uint64
	err     error
}

// engineDevObs is one StatSource device under delta sampling. prev is
// the last committed sample; cur is a scratch buffer reused every round
// so barrier sampling stays allocation-free on quiet rounds.
type engineDevObs struct {
	tid  int
	src  obs.StatSource
	prev []obs.Stat
	cur  []obs.Stat
}

// New returns an engine over k. r may be nil (no re-randomization) and
// b may be nil (no devices). Epoch devices are discovered from the bus
// by interface assertion — this replaces the old EpochDevice variadic.
func New(k *kernel.Kernel, r *rerand.Randomizer, b *bus.Bus) *Engine {
	e := &Engine{K: k, R: r, Bus: b}
	if b != nil {
		e.Epoch = b.EpochDevices()
	}
	return e
}

// lap records one lane's physical cost for the op it ran this round.
type lap struct {
	busy     uint64
	wait     uint64
	blocks   uint64
	chained  uint64
	indirect uint64
	err      error
}

// Run executes cfg.Ops operations across the vCPUs, interleaving
// clocked-actor steps on the virtual clock, and derives the
// figure-level metrics.
//
// Concurrency model (closed queueing, first-order): each of the Workers
// clients issues its next operation as soon as the previous completes.
// An operation holds a CPU for its busy portion and overlaps its device /
// client-round-trip wait with other workers. The sustainable rate is the
// minimum of three ceilings:
//
//	workers/latency   — Little's law over the closed population,
//	(N-1)/busy        — CPU capacity (one core's headroom reserved),
//	wire/bytesPerOp   — link bandwidth.
//
// This is what produces the paper's curves: throughput rising with
// concurrency until either the wire (Figs. 7/8) or the CPUs saturate.
// Unlike the analytic model's population, the *physical* execution is
// capped at NumCPUs lanes — the simulated machine cannot interpret more
// concurrent operations than it has cores, exactly like the testbed.
func (e *Engine) Run(cfg RunConfig, op OpFunc) (RunResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	ncpu := e.K.NumCPUs()
	lanes := cfg.Workers
	if lanes > ncpu {
		lanes = ncpu
	}
	if lanes > cfg.Ops {
		lanes = cfg.Ops
	}

	var res RunResult
	res.Lanes = lanes
	if e.Bus != nil {
		res.IRQsPerLane = make([]uint64, ncpu)
		res.IRQCyclesPerLane = make([]uint64, ncpu)
	}
	clk := NewClock()
	e.beginTrace(cfg.Trace, lanes)
	defer func() { e.tr = nil }()
	var trRerand int
	if e.tr != nil && e.R != nil && cfg.RerandPeriodUs > 0 {
		trRerand = e.tr.Track("rerand")
	}
	if e.R != nil && cfg.RerandPeriodUs > 0 {
		clk.Schedule(Actor{
			Name:     "rerand",
			PeriodUs: cfg.RerandPeriodUs,
			Step: func() error {
				rep, err := e.R.Step()
				if err != nil {
					return err
				}
				res.RerandCycles += rep.Cycles
				res.RerandSteps++
				mRerandEpochs.Inc()
				mRerandModulesMoved.Add(uint64(rep.ModulesMoved))
				mRerandPagesRemapped.Add(rep.PagesRemapped)
				if e.tr != nil {
					// Epoch begin→end as one span: begin at the firing
					// clock, duration = the randomizer thread's modeled
					// cost, args carrying the moved-module list.
					names := make([]string, 0, len(e.R.Modules()))
					for _, m := range e.R.Modules() {
						names = append(names, m.Name)
					}
					slices.Sort(names)
					e.tr.Lane(trRerand).Emit(obs.Event{
						Clk: uint64(clk.NowUs() * (CPUHz / 1e6)), Dur: rep.Cycles,
						Track: trRerand, Kind: obs.KindRerand, Name: "rerand epoch",
						Args: []obs.Arg{
							obs.ArgS("moved", strings.Join(names, ",")),
							obs.ArgU("pages_remapped", rep.PagesRemapped),
							obs.ArgU("got_entries", rep.GotEntries),
							obs.ArgI("stacks_retired", int64(rep.StacksRetired)),
						},
					})
				}
				return nil
			},
		})
	}
	for _, a := range cfg.Actors {
		clk.Schedule(a)
	}
	if e.Bus != nil {
		e.Bus.SetNow(0)
	}

	laps := make([]lap, lanes)
	for base := 0; base < cfg.Ops; base += lanes {
		n := cfg.Ops - base
		if n > lanes {
			n = lanes
		}
		for _, d := range e.Epoch {
			d.BeginEpoch()
		}
		for l := 0; l < n; l++ {
			laps[l] = e.runOne(l, op)
		}
		for _, d := range e.Epoch {
			d.EndEpoch()
		}

		// Accounting pass: single-threaded, in op order, with every vCPU
		// at the barrier. Clock advances here are where actors fire.
		for l := 0; l < n; l++ {
			if laps[l].err != nil {
				return res, fmt.Errorf("engine: op %d: %w", base+l, laps[l].err)
			}
			busy := laps[l].busy + cfg.SyscallCycles
			res.BusyCycles += busy
			res.WaitCycles += laps[l].wait
			res.Blocks += laps[l].blocks
			res.ChainedBlocks += laps[l].chained
			res.IndirectChained += laps[l].indirect

			busyUs := float64(busy) / CPUHz * 1e6
			latencyUs := float64(busy+laps[l].wait) / CPUHz * 1e6
			ratePerUs := float64(cfg.Workers) / latencyUs
			if busyUs > 0 {
				if cpuRate := float64(ncpu-1) / busyUs; cpuRate < ratePerUs {
					ratePerUs = cpuRate
				}
			}
			if cfg.WireBps > 0 && cfg.BytesPerOp > 0 {
				if wireRate := cfg.WireBps / cfg.BytesPerOp / 1e6; wireRate < ratePerUs {
					ratePerUs = wireRate
				}
			}
			if err := clk.Advance(1 / ratePerUs); err != nil {
				return res, err
			}
		}

		// Trace window: with the round fully accounted, derive per-lane
		// retire summaries and counter deltas — all from state the
		// accounting pass already collected, so tracing costs nothing
		// when off and no simulated cycles ever.
		if e.tr != nil {
			e.traceRound(clk, laps[:n])
		}

		// Interrupt window: with the round fully accounted and every vCPU
		// still quiescent, publish the clock, step coalescing timers, and
		// deliver pending lines to their ISRs.
		if err := e.serviceIRQs(clk, &res, false); err != nil {
			return res, err
		}
		if e.tr != nil {
			e.tr.Barrier()
		}
	}

	// Final flush: force coalescing timers so frames still pending below
	// their thresholds are signalled and drained before metrics derive.
	if err := e.serviceIRQs(clk, &res, true); err != nil {
		return res, err
	}
	if e.tr != nil {
		e.tr.Barrier()
	}

	elapsedUs := clk.NowUs()
	res.ElapsedSec = elapsedUs / 1e6
	if res.ElapsedSec > 0 {
		res.OpsPerSec = float64(cfg.Ops) / res.ElapsedSec
		res.MBPerSec = res.OpsPerSec * cfg.BytesPerOp / 1e6
	}
	res.AvgOpMicros = elapsedUs / float64(cfg.Ops)
	totalCycles := float64(ncpu) * res.ElapsedSec * CPUHz
	if totalCycles > 0 {
		// Worker busy time is per-op busy × ops (all workers included:
		// each op's busy cycles were executed once on some core). ISR
		// time is CPU time too, like the randomizer thread's.
		res.CPUUsagePct = (float64(res.BusyCycles) + float64(res.RerandCycles) + float64(res.IRQCycles)) / totalCycles * 100
	}
	mRuns.Inc()
	mOps.Add(uint64(cfg.Ops))
	mBusyCycles.Add(res.BusyCycles)
	mBlocks.Add(res.Blocks)
	mChainedBlocks.Add(res.ChainedBlocks)
	mIndirectChained.Add(res.IndirectChained)
	mIRQs.Add(res.IRQs)
	mIRQCycles.Add(res.IRQCycles)
	return res, nil
}

// beginTrace arms the engine's trace state for one Run: allocates the
// non-vCPU tracks and snapshots the cumulative counters (per-lane TLB
// misses, device stats, COW detaches) that traceRound delta-samples at
// every barrier.
func (e *Engine) beginTrace(tr *obs.Tracer, lanes int) {
	e.tr = tr
	if tr == nil {
		return
	}
	e.trIRQ = tr.Track("irq")
	e.trMM = tr.Track("mm")
	e.devObs = e.devObs[:0]
	if e.Bus != nil {
		for _, d := range e.Bus.Devices() {
			if src, ok := d.(obs.StatSource); ok {
				e.devObs = append(e.devObs, engineDevObs{
					tid:  tr.Track(d.DevName()),
					src:  src,
					prev: src.ObsStats(nil),
				})
			}
		}
	}
	e.tlbPrev = make([]uint64, lanes)
	for l := range e.tlbPrev {
		_, miss, _ := e.K.CPU(l).TLB.Stats()
		e.tlbPrev[l] = miss
	}
	e.cowPrev = e.K.AS.Phys().COWDetaches()
}

// traceRound emits the round's retire summaries and counter deltas. It
// runs after the accounting pass with every vCPU quiescent; events
// carry the post-accounting barrier clock except where a device stamped
// an earlier raise time.
func (e *Engine) traceRound(clk *Clock, laps []lap) {
	now := uint64(clk.NowUs() * (CPUHz / 1e6))
	for l := range laps {
		lane := e.tr.Lane(l)
		// Idle lanes (no op this round) emit nothing: a narrow workload
		// on a wide machine would otherwise pay one empty summary per
		// idle vCPU per round — the dominant traced-dd cost — and the
		// gaps render more honestly in Perfetto anyway.
		if laps[l].blocks != 0 || laps[l].busy != 0 {
			args := lane.ArgBuf(4)
			args[0] = obs.ArgU("blocks", laps[l].blocks)
			args[1] = obs.ArgU("chained", laps[l].chained)
			args[2] = obs.ArgU("indirect", laps[l].indirect)
			args[3] = obs.ArgU("busy_cycles", laps[l].busy)
			lane.Emit(obs.Event{
				Clk: now, Track: l, Kind: obs.KindRound, Name: "round", Args: args,
			})
		}
		_, miss, _ := e.K.CPU(l).TLB.Stats()
		if d := miss - e.tlbPrev[l]; d > 0 {
			e.tlbPrev[l] = miss
			args := lane.ArgBuf(1)
			args[0] = obs.ArgU("misses", d)
			lane.Emit(obs.Event{
				Clk: now, Track: l, Kind: obs.KindTLB, Name: "tlb-refill", Args: args,
			})
		}
	}
	for i := range e.devObs {
		d := &e.devObs[i]
		d.cur = d.src.ObsStats(d.cur[:0])
		// Count deltas before carving arena space: most rounds most
		// devices are quiet, and a speculative carve per device per
		// round would burn arena chunks on nothing.
		n := 0
		for j := range d.cur {
			if d.cur[j].Value > d.prev[j].Value {
				n++
			}
		}
		if n > 0 {
			args := e.tr.Lane(d.tid).ArgBuf(n)[:0]
			for j := range d.cur {
				if delta := d.cur[j].Value - d.prev[j].Value; delta > 0 {
					args = append(args, obs.ArgU(d.cur[j].Name, delta))
				}
			}
			d.prev = append(d.prev[:0], d.cur...)
			e.tr.Lane(d.tid).Emit(obs.Event{
				Clk: now, Track: d.tid, Kind: obs.KindDev, Name: "dev", Args: args,
			})
		}
	}
	if cow := e.K.AS.Phys().COWDetaches(); cow != e.cowPrev {
		delta := cow - e.cowPrev
		e.cowPrev = cow
		e.tr.Lane(e.trMM).Emit(obs.Event{
			Clk: now, Track: e.trMM, Kind: obs.KindMM, Name: "cow-detach",
			Args: []obs.Arg{obs.ArgI("frames", delta)},
		})
	}
}

// serviceIRQs runs the barrier interrupt window: publish the virtual
// clock to the bus, tick coalescing timers, and drain the pending
// vector set grouped by routed target vCPU. Groups dispatch serially in
// (vCPU, line) order, each on its target's cpu.CPU, and the delivery
// trace, counters and per-lane accounting are then committed in the same
// order. With force set (end of measurement) it loops until the pending
// set is empty, so an ISR whose unmask re-asserts the line still drains
// before metrics derive. Each pass starts with the bus's lock-free quiet
// check, so a barrier with no device work ends after SetNow.
func (e *Engine) serviceIRQs(clk *Clock, res *RunResult, force bool) error {
	if e.Bus == nil {
		return nil
	}
	now := uint64(clk.NowUs() * (CPUHz / 1e6))
	e.Bus.SetNow(now)
	ic := e.Bus.IC()
	ncpu := e.K.NumCPUs()
	for iter := 0; ; iter++ {
		if iter >= 1024 {
			return fmt.Errorf("engine: interrupt storm: lines still pending after %d flush passes", iter)
		}
		if e.Bus.Quiet() {
			return nil
		}
		e.Bus.Tick(force)
		pending := ic.TakePending(e.pending[:0])
		e.pending = pending
		if len(pending) == 0 {
			return nil
		}
		// Clamp routes to booted vCPUs, then order the set by (vCPU, line):
		// groups become contiguous runs in the deterministic delivery
		// order. TakePending returned the set line-ascending, so a
		// same-vCPU pair keeps line order under this stable sort.
		for i := range pending {
			if pending[i].VCPU < 0 || pending[i].VCPU >= ncpu {
				pending[i].VCPU = 0
			}
		}
		slices.SortStableFunc(pending, func(a, b bus.PendingIRQ) int { return cmp.Compare(a.VCPU, b.VCPU) })

		dels := slices.Grow(e.dels[:0], len(pending))[:len(pending)]
		clear(dels)
		e.dels = dels
		dispatch := func(c *cpu.CPU, lo, hi int) {
			for i := lo; i < hi; i++ {
				before := c.Cycles
				handled, err := e.K.DispatchIRQ(c, pending[i].Line)
				dels[i] = delivery{handled: handled, cycles: c.Cycles - before, err: err}
				if err != nil {
					return
				}
			}
		}
		for lo := 0; lo < len(pending); {
			hi := lo + 1
			for hi < len(pending) && pending[hi].VCPU == pending[lo].VCPU {
				hi++
			}
			dispatch(e.K.CPU(pending[lo].VCPU), lo, hi)
			lo = hi
		}
		// Commit: trace, counters and per-lane attribution in (vCPU, line)
		// order.
		for i, p := range pending {
			d := dels[i]
			if d.err != nil {
				return fmt.Errorf("engine: irq line %d (vcpu %d): %w", p.Line, p.VCPU, d.err)
			}
			if d.handled {
				res.IRQs++
				res.IRQCycles += d.cycles
				res.IRQsPerLane[p.VCPU]++
				res.IRQCyclesPerLane[p.VCPU] += d.cycles
			}
			ic.NoteDelivered(p, now, d.handled)
			if e.tr != nil {
				// Raise on the device-side irq track at the assert clock;
				// deliver→ISR-done as a span on the routed vCPU's track.
				handled := uint64(0)
				if d.handled {
					handled = 1
				}
				irqLane := e.tr.Lane(e.trIRQ)
				rargs := irqLane.ArgBuf(2)
				rargs[0] = obs.ArgU("line", uint64(p.Line))
				rargs[1] = obs.ArgU("vcpu", uint64(p.VCPU))
				irqLane.Emit(obs.Event{
					Clk: p.Since, Track: e.trIRQ, Kind: obs.KindIRQRaise,
					Name: fmt.Sprintf("raise L%d", p.Line),
					Args: rargs,
				})
				cpuLane := e.tr.Lane(p.VCPU)
				iargs := cpuLane.ArgBuf(3)
				iargs[0] = obs.ArgU("line", uint64(p.Line))
				iargs[1] = obs.ArgU("raised_at", p.Since)
				iargs[2] = obs.ArgU("handled", handled)
				cpuLane.Emit(obs.Event{
					Clk: now, Dur: d.cycles, Track: p.VCPU, Kind: obs.KindISR,
					Name: fmt.Sprintf("isr L%d", p.Line),
					Args: iargs,
				})
			}
		}
		if !force {
			return nil
		}
	}
}

// runOne executes a single operation on lane l's vCPU and measures its
// interpreted cost. Block and chain-link counts are sampled the same way
// cycles are: a lane retires whole basic blocks (chained block→block on
// hot traces) inside its round slot, and the counts are folded into the
// round's accounting at the barrier.
func (e *Engine) runOne(l int, op OpFunc) lap {
	c := e.K.CPU(l)
	before := c.Cycles
	beforeBlocks := c.Blocks
	beforeChained := c.ChainedBlocks
	beforeIndirect := c.IndirectChained
	wait, err := op(c)
	return lap{busy: c.Cycles - before, wait: wait,
		blocks: c.Blocks - beforeBlocks, chained: c.ChainedBlocks - beforeChained,
		indirect: c.IndirectChained - beforeIndirect, err: err}
}
