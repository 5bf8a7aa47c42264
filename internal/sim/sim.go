// Package sim assembles the full testbed of Table 1 in simulation: a
// 20-vCPU kernel at a nominal 2.2 GHz (the Xeon Silver 4114), an NVMe
// controller, a pair of back-to-back NICs (server + load generator), an
// xHCI controller, the driver suite, and the re-randomizer.
//
// Its Run method is the measurement harness every figure uses: it
// deals operations across the vCPUs via internal/engine (interpreting
// the real driver code paths, so wrapper/prologue/retpoline/GOT costs
// and post-remap TLB misses are all physically incurred), advances a
// deterministic virtual clock, fires the re-randomizer at its configured
// period on that clock, and reports throughput and all-core CPU usage
// the way §5 does.
package sim

import (
	"fmt"

	"adelie/internal/bus"
	"adelie/internal/devices"
	"adelie/internal/drivers"
	"adelie/internal/engine"
	"adelie/internal/kernel"
	"adelie/internal/mm"
	"adelie/internal/obs"
	"adelie/internal/rerand"
)

// CPUHz is the nominal clock of the simulated testbed (Table 1).
const CPUHz = engine.CPUHz

// mmioBase is where the device bus starts allocating MMIO windows
// (inside the kernel half, away from other regions). Windows come out
// in attach order: nvme, nic0, nic1, xhci — the same per-device bases
// the testbed used before the bus existed.
const mmioBase = mm.KernelBase + 0x7_0000_0000

// Config configures a machine.
type Config struct {
	NumCPUs int   // default 20 (Table 1 server)
	Seed    int64 // determinism knob
	KASLR   kernel.KASLRMode

	// NICQueues sets the server adapter's RX queue count (RSS). 0 and 1
	// both mean the legacy single-queue adapter, whose MMIO map, vector
	// allocation and RNG draws are byte-identical to the pre-multi-queue
	// machine. Capped at devices.MaxNICQueues.
	NICQueues int
}

// Machine is the assembled testbed. Devices hang off the Bus, which
// allocates their MMIO windows and owns the deterministic interrupt
// controller; the named fields are conveniences into the same devices.
type Machine struct {
	K    *kernel.Kernel
	R    *rerand.Randomizer
	Bus  *bus.Bus
	NVMe *devices.NVMe
	NIC  *devices.NIC // server-side adapter ("nic0")
	Peer *devices.NIC // load-generator adapter ("nic1")
	XHCI *devices.XHCI

	frozen   bool // set by Snapshot: machine is a fork template, refuses Run/Call
	released bool // set by Release: its frames may be another machine's now

	tracer *obs.Tracer   // default event tracer for Run (AttachObs)
	prof   *obs.Profiler // installed sampling profiler, if any (AttachObs)
}

// NewMachine boots the testbed: kernel, bus, and the Table-1 device set
// attached in fixed order (deterministic bases and IRQ lines).
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.NumCPUs == 0 {
		cfg.NumCPUs = 20
	}
	k, err := kernel.New(kernel.Config{NumCPUs: cfg.NumCPUs, Seed: cfg.Seed, KASLR: cfg.KASLR})
	if err != nil {
		return nil, err
	}
	if cfg.NICQueues > devices.MaxNICQueues {
		return nil, fmt.Errorf("sim: NICQueues %d exceeds the adapter's %d hardware queues",
			cfg.NICQueues, devices.MaxNICQueues)
	}
	m := &Machine{K: k, R: rerand.New(k), Bus: bus.New(k.AS, mmioBase)}
	// Guest-visible IRQ affinity (request_irq / irq_set_affinity) programs
	// the bus interrupt controller's vector routes.
	k.SetIRQRouter(m.Bus.IC().SetRoute)

	m.NVMe = devices.NewNVMe(k.AS)
	m.NIC = devices.NewNIC(k.AS)
	m.NIC.Name = "nic0"
	if cfg.NICQueues > 1 {
		m.NIC.SetQueues(cfg.NICQueues)
	}
	m.Peer = devices.NewNIC(k.AS)
	m.Peer.Name = "nic1"
	m.XHCI = devices.NewXHCI()
	for _, d := range []bus.Device{m.NVMe, m.NIC, m.Peer, m.XHCI} {
		if _, err := m.Bus.Attach(d); err != nil {
			return nil, err
		}
	}
	devices.Connect(m.NIC, m.Peer)
	return m, nil
}

// MMIOBase returns the bus window base of a named device ("nvme",
// "nic0", "nic1", "xhci").
func (m *Machine) MMIOBase(name string) (uint64, error) {
	base, ok := m.Bus.Base(name)
	if !ok {
		return 0, fmt.Errorf("sim: no device %q on the bus", name)
	}
	return base, nil
}

// LoadDriver builds, loads and (if re-randomizable) registers a driver.
func (m *Machine) LoadDriver(name string, o drivers.BuildOpts) (*kernel.Module, error) {
	mk, ok := drivers.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown driver %q", name)
	}
	obj, err := drivers.Build(mk(), o)
	if err != nil {
		return nil, err
	}
	mod, err := m.K.Load(obj)
	if err != nil {
		return nil, err
	}
	if o.Rerand {
		if err := m.R.Add(mod); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// Call invokes an exported driver symbol on vCPU 0.
func (m *Machine) Call(sym string, args ...uint64) (uint64, error) {
	if m.released {
		return 0, errReleased
	}
	if m.frozen {
		return 0, fmt.Errorf("sim: machine is a frozen snapshot template; Fork it to run")
	}
	va, ok := m.K.Symbol(sym)
	if !ok {
		return 0, fmt.Errorf("sim: symbol %q not exported", sym)
	}
	return m.K.CPU(0).Call(va, args...)
}

// InitNVMe allocates submission/completion queues and initializes the
// loaded NVMe driver against the controller. The queues carry one slot
// per vCPU (the driver dedicates slot smp_processor_id() to each CPU),
// so reads issued by different lanes never share an entry.
func (m *Machine) InitNVMe() error {
	ncpu := uint64(m.K.NumCPUs())
	sq, err := m.K.Kmalloc(ncpu * 32)
	if err != nil {
		return err
	}
	cq, err := m.K.Kmalloc(ncpu * 16)
	if err != nil {
		return err
	}
	mmio, err := m.MMIOBase("nvme")
	if err != nil {
		return err
	}
	_, err = m.Call("nvme_init", mmio, sq, cq)
	return err
}

// InitNIC allocates descriptor rings and RX buffers for one of the NIC
// driver variants (prefix "e1000e", "e1000" or "ena") and initializes it
// against the server adapter, passing the adapter's bus IRQ line so the
// driver can request_irq its NAPI-style ISR. It returns the ring length
// used.
func (m *Machine) InitNIC(prefix string) (uint64, error) {
	return m.InitNICRing(prefix, 64)
}

// InitNICRing is InitNIC with a caller-chosen ring length (small rings
// force RX overruns for coalescing experiments). The length must be a
// power of two: the drivers mask slot indexes instead of dividing, so
// any other length would silently desync the driver's cursor from the
// device's fill pointer.
func (m *Machine) InitNICRing(prefix string, ringLen uint64) (uint64, error) {
	if ringLen == 0 || ringLen&(ringLen-1) != 0 {
		return 0, fmt.Errorf("sim: NIC ring length %d is not a power of two", ringLen)
	}
	tx, err := m.K.Kmalloc(ringLen * 16)
	if err != nil {
		return 0, err
	}
	rx, err := m.K.Kmalloc(ringLen * 16)
	if err != nil {
		return 0, err
	}
	// Pre-post RX buffers.
	for i := uint64(0); i < ringLen; i++ {
		buf, err := m.K.Kmalloc(2048)
		if err != nil {
			return 0, err
		}
		if err := m.K.AS.Write64(rx+i*16, buf); err != nil {
			return 0, err
		}
	}
	mmio, err := m.MMIOBase("nic0")
	if err != nil {
		return 0, err
	}
	_, err = m.Call(prefix+"_init", mmio, tx, rx, ringLen, uint64(m.NIC.IRQLine()))
	return ringLen, err
}

// InitNICMQ allocates a TX ring plus one RX ring per hardware queue and
// initializes the multi-queue driver (prefix "e1000emq") against the
// server adapter. The driver's init walks the ring table, programs each
// queue's device ring register, registers its NAPI ISR on each queue's
// vector and pins queue q's vector to vCPU q — so the machine must have
// been built with Config.NICQueues matching queues. Ring length rules
// are InitNICRing's.
func (m *Machine) InitNICMQ(prefix string, ringLen uint64, queues int) (uint64, error) {
	if ringLen == 0 || ringLen&(ringLen-1) != 0 {
		return 0, fmt.Errorf("sim: NIC ring length %d is not a power of two", ringLen)
	}
	if queues < 1 || queues > m.NIC.NumQueues() {
		return 0, fmt.Errorf("sim: %d queues requested, adapter has %d", queues, m.NIC.NumQueues())
	}
	tx, err := m.K.Kmalloc(ringLen * 16)
	if err != nil {
		return 0, err
	}
	// Ring table: queues consecutive RX ring base addresses, each ring
	// with pre-posted buffers.
	rxtab, err := m.K.Kmalloc(uint64(queues) * 8)
	if err != nil {
		return 0, err
	}
	for q := 0; q < queues; q++ {
		rx, err := m.K.Kmalloc(ringLen * 16)
		if err != nil {
			return 0, err
		}
		for i := uint64(0); i < ringLen; i++ {
			buf, err := m.K.Kmalloc(2048)
			if err != nil {
				return 0, err
			}
			if err := m.K.AS.Write64(rx+i*16, buf); err != nil {
				return 0, err
			}
		}
		if err := m.K.AS.Write64(rxtab+uint64(q)*8, rx); err != nil {
			return 0, err
		}
	}
	mmio, err := m.MMIOBase("nic0")
	if err != nil {
		return 0, err
	}
	lines := m.Bus.IRQLines("nic0")
	if len(lines) < queues {
		return 0, fmt.Errorf("sim: adapter has %d vectors, %d queues requested", len(lines), queues)
	}
	_, err = m.Call(prefix+"_init", mmio, tx, rxtab, ringLen, uint64(queues), uint64(lines[0]))
	return ringLen, err
}

// InitNVMeIRQ switches the storage path to completion interrupts: it
// loads nothing itself (the "nvmeirq" companion driver must already be
// loaded), registers the completion ISR on the controller's vector
// pinned to the given vCPU, and enables the controller's interrupt.
func (m *Machine) InitNVMeIRQ(vcpu int) error {
	mmio, err := m.MMIOBase("nvme")
	if err != nil {
		return err
	}
	line := m.Bus.IRQLine("nvme")
	if line < 0 {
		return fmt.Errorf("sim: nvme has no interrupt line")
	}
	_, err = m.Call("nvmeirq_setup", uint64(line), uint64(vcpu), mmio)
	return err
}

// InitXHCI initializes the xHCI driver.
func (m *Machine) InitXHCI() error {
	mmio, err := m.MMIOBase("xhci")
	if err != nil {
		return err
	}
	_, err = m.Call("xhci_init", mmio)
	return err
}

// Module returns a loaded driver module (drivers are named after their
// module), or nil. On a fork the module is cloned on first access.
func (m *Machine) Module(name string) *kernel.Module {
	mod, _ := m.K.Module(name)
	return mod
}

// OpFunc executes one benchmark operation on the vCPU, returning the
// device wait in cycles (time the CPU is idle on I/O) and any fault.
// Operations are dealt across up to min(Workers, NumCPUs) vCPUs, one
// per lane per round, and run one after another on the caller's
// goroutine. Those lanes are the simulated SMP machine the figures
// measure, so any host-side closure state must be kept per-lane (index
// it by c.ID), guest code on the path must be SMP-correct, and an op
// must never wait on another lane within a round (see internal/engine).
type OpFunc = engine.OpFunc

// RunConfig parameterizes a measurement.
type RunConfig = engine.RunConfig

// RunResult is one measured configuration — a point on a §5 figure.
type RunResult = engine.RunResult

// Engine returns the execution engine for this machine, wired
// to the device bus: the re-randomizer runs as a clocked actor, epoch
// devices (the NVMe controller) are discovered from the bus by
// interface assertion, and device interrupts are delivered at the
// engine's clock boundaries.
func (m *Machine) Engine() *engine.Engine {
	return engine.New(m.K, m.R, m.Bus)
}

// Run executes cfg.Ops operations across the machine's vCPUs under the
// deterministic barrier-synchronized virtual clock, interleaving
// re-randomizer steps, and derives the figure-level metrics. Lanes
// retire whole decoded basic blocks per round slot (superblock
// execution, reported in RunResult.Blocks), chained block→block along
// hot traces without returning to the dispatch loop (trace linking,
// reported in RunResult.ChainedBlocks — direct links and the monomorphic
// indirect target cache alike, the latter also broken out in
// RunResult.IndirectChained); per-block costs are replayed
// into the closed-queueing model unchanged. See engine.Engine.Run for
// the execution and queueing model and internal/cpu's superblock.go for
// the link-invalidation contract.
func (m *Machine) Run(cfg RunConfig, op OpFunc) (RunResult, error) {
	if m.released {
		return RunResult{}, errReleased
	}
	if m.frozen {
		return RunResult{}, fmt.Errorf("sim: machine is a frozen snapshot template; Fork it to run")
	}
	if cfg.Trace == nil {
		cfg.Trace = m.tracer
	}
	if cfg.Profile != nil {
		// Per-run profiler: install for the duration of this run, then
		// restore whatever AttachObs left in place.
		m.installProfiler(cfg.Profile)
		defer m.installProfiler(m.prof)
	}
	return m.Engine().Run(cfg, op)
}
