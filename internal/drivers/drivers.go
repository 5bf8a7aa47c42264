// Package drivers contains the device drivers of the evaluation, written
// in the kcc IR and compiled like any kernel module. The set mirrors the
// paper's §5 choices: network (E1000E, E1000, ENA), storage (NVMe),
// USB 3.0 (xHCI), file systems (ext4, FUSE) and the dummy IOCTL driver of
// the CPU-bound worst-case test (§5.3).
//
// Each driver exposes an init entry point that receives its MMIO base
// (and queue/ring memory where applicable) and data-path entry points the
// kernel calls per operation. Built with internal/plugin, every exported
// entry gains an immovable wrapper, stack substitution and return-address
// encryption — the code paths whose cost the figures measure.
package drivers

import (
	"adelie/internal/devices"
	"adelie/internal/elfmod"
	"adelie/internal/isa"
	"adelie/internal/kcc"
	"adelie/internal/kernel"
	"adelie/internal/plugin"
)

// BuildOpts selects the build configuration for a driver, spanning the
// paper's evaluation matrix (vanilla / PIC / PIC+retpoline /
// re-randomizable with or without stack re-randomization).
type BuildOpts struct {
	PIC         bool
	Retpoline   bool
	Rerand      bool // plugin transform (implies PIC)
	StackRerand bool
	RetEncrypt  bool
}

// Build compiles a driver module under the given configuration.
func Build(m *kcc.Module, o BuildOpts) (*elfmod.Object, error) {
	if o.Rerand {
		return plugin.Build(m, plugin.Options{
			Retpoline:   o.Retpoline,
			StackRerand: o.StackRerand,
			RetEncrypt:  o.RetEncrypt,
		})
	}
	model := kcc.ModelAbsolute
	if o.PIC {
		model = kcc.ModelPIC
	}
	return kcc.Compile(m, kcc.Options{Model: model, Retpoline: o.Retpoline})
}

// MaxGuestCPUs bounds the per-CPU data arrays drivers carry. The
// engine runs guest code on up to NumCPUs vCPUs — the simulated SMP
// machine — so driver counters and queue slots are per-CPU (indexed by
// smp_processor_id), exactly like this_cpu_* data in real Linux
// drivers. kernel.New enforces NumCPUs <= kernel.MaxCPUs, which this
// mirrors.
const MaxGuestCPUs = kernel.MaxCPUs

// perCPUSlot emits code computing base+8*cpu of a per-CPU 64-bit array:
// RAX = smp_processor_id()*8, baseReg = &global + RAX. Clobbers RAX.
func perCPUSlot(baseReg isa.Reg, global string) []kcc.Ins {
	return []kcc.Ins{
		kcc.Call("smp_processor_id"),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 3),
		kcc.GlobalAddr(baseReg, global),
		kcc.Arith(kcc.OpAdd, baseReg, isa.RAX),
	}
}

// Dummy returns the §5.3 dummy driver: a null IOCTL handler executed in a
// tight loop to expose the worst-case (CPU-bound) overhead of wrappers
// and stack re-randomization (Fig. 9). The op counter is per-CPU, so
// concurrent vCPUs never write the same cell.
func Dummy(name string) *kcc.Module {
	m := &kcc.Module{Name: name}
	body := []kcc.Ins{
		// Validate the request code and fall through the default arm —
		// the "null ioctl operation" of §5.3.
		kcc.MovReg(isa.RAX, isa.RDI),
		kcc.CmpImm(isa.RAX, 0),
		kcc.Br(kcc.CondEQ, "ok"),
		kcc.CmpImm(isa.RAX, 0x5401), // a TCGETS-flavoured request code
		kcc.Br(kcc.CondEQ, "ok"),
		kcc.MovImm(isa.RAX, -22), // -EINVAL
		kcc.Ret(),
		kcc.Label("ok"),
	}
	body = append(body, perCPUSlot(isa.RBX, name+"_count")...)
	body = append(body,
		kcc.Load(isa.RCX, isa.RBX, 0),
		kcc.ArithImm(kcc.OpAdd, isa.RCX, 1),
		kcc.Store(isa.RBX, 0, isa.RCX),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddFunc(name+"_ioctl", true, body...)
	m.AddGlobal(kcc.Global{Name: name + "_count", Size: 8 * MaxGuestCPUs, Init: make([]byte, 8*MaxGuestCPUs)})
	return m
}

// NVMe returns the storage driver. Entry points:
//
//	nvme_init(mmio, sq, cq)      — program controller registers
//	nvme_read(buf, lba, count)   — synchronous O_DIRECT-style read;
//	                               returns the device-reported latency
//	                               in cycles (0 on failure)
//
// The polled-CQ spin is retired: nvme_read consumes its slot's
// completion through the CQ latency word the controller posts (nonzero
// = complete; the driver clears it), and when the companion nvmeirq
// module's setup has run the controller additionally signals every
// posted completion through an interrupt whose ISR runs on the routed
// vCPU at the next clock boundary. The consume sequence executes the
// same number of instructions, with the same encoded byte length, on
// the same CQ page as the old status check, so latency figures AND the
// module's re-randomization copy cost are unchanged (fig6's golden
// regression test pins this).
//
// The driver is SMP-correct: each vCPU owns submission/completion queue
// slot smp_processor_id() (the queues must be sized for NumCPUs entries,
// see sim.Machine.InitNVMe) and the completion latency is read from the
// per-slot CQ entry, not from a shared device register — so concurrent
// reads on different vCPUs never touch each other's queue state.
func NVMe() *kcc.Module {
	m := &kcc.Module{Name: "nvme"}
	m.AddFunc("nvme_init", true,
		// args: rdi=mmio, rsi=sq, rdx=cq
		kcc.GlobalStore("nvme_mmio", isa.RDI),
		kcc.GlobalStore("nvme_sq", isa.RSI),
		kcc.GlobalStore("nvme_cq", isa.RDX),
		// Program the controller.
		kcc.Store(isa.RDI, devices.NVMeRegSQBase, isa.RSI),
		kcc.Store(isa.RDI, devices.NVMeRegCQBase, isa.RDX),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddFunc("nvme_read", true,
		// args: rdi=buf, rsi=lba, rdx=count
		kcc.Call("smp_processor_id"),
		kcc.MovReg(isa.R14, isa.RAX), // r14 = this CPU's queue slot
		// SQ entry = sq + slot*32.
		kcc.GlobalLoad(isa.RBX, "nvme_sq"),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 5),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.MovImm(isa.RAX, devices.NVMeCmdRead),
		kcc.Store(isa.RBX, 0, isa.RAX),
		kcc.Store(isa.RBX, 8, isa.RSI),
		kcc.Store(isa.RBX, 16, isa.RDX),
		kcc.Store(isa.RBX, 24, isa.RDI),
		// Ring the doorbell with this CPU's slot.
		kcc.GlobalLoad(isa.RCX, "nvme_mmio"),
		kcc.Store(isa.RCX, devices.NVMeRegDoorbell, isa.R14),
		// Consume the completion at cq + slot*16: the controller posts a
		// nonzero latency word per completed command; zero means nothing
		// completed (the retired polled-CQ status check's failure case).
		kcc.GlobalLoad(isa.RBX, "nvme_cq"),
		kcc.MovReg(isa.RAX, isa.R14),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 4),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Load(isa.RAX, isa.RBX, 8),
		kcc.CmpImm(isa.RAX, 0),
		kcc.Br(kcc.CondEQ, "fail"),
		// Clear both CQ words (marks the slot reusable); the latency
		// stays in RAX as the return value.
		kcc.MovImm(isa.RCX, 0),
		kcc.Store(isa.RBX, 8, isa.RCX),
		kcc.Store(isa.RBX, 0, isa.RCX),
		kcc.Ret(),
		kcc.Label("fail"),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	for _, g := range []string{"nvme_mmio", "nvme_sq", "nvme_cq"} {
		m.AddGlobal(kcc.Global{Name: g, Size: 8, Init: make([]byte, 8)})
	}
	return m
}

// NVMeIRQ returns the storage driver's completion-interrupt companion
// module — a separate module (so the base nvme module's byte image, and
// with it every legacy figure's re-randomization copy cost, stays
// untouched) that interrupt-driven workloads load alongside "nvme".
// Entry points:
//
//	nvmeirq_setup(line, cpu, mmio) — register the completion ISR on the
//	                                 controller's vector, affine to cpu,
//	                                 and enable the completion interrupt
//	nvmeirq_count()                — completions the ISR acknowledged
//
// The ISR is movable, like the NIC's NAPI handler: the re-randomizer
// slides the registered vector when the module moves. The vector is
// affine to one vCPU, so the acknowledgment counter needs no per-CPU
// slot.
func NVMeIRQ() *kcc.Module {
	m := &kcc.Module{Name: "nvmeirq"}
	m.AddFunc("nvmeirq.isr", false,
		kcc.GlobalLoad(isa.RAX, "nvmeirq_compl"),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.GlobalStore("nvmeirq_compl", isa.RAX),
		kcc.Ret(),
	)
	m.AddFunc("nvmeirq_setup", true,
		// args: rdi=line, rsi=cpu, rdx=mmio
		kcc.MovReg(isa.R14, isa.RDI), // r14 = line
		kcc.MovReg(isa.R13, isa.RSI), // r13 = cpu
		kcc.MovReg(isa.R12, isa.RDX), // r12 = controller mmio base
		kcc.GlobalAddr(isa.RSI, "nvmeirq.isr"),
		kcc.Call("request_irq"),
		kcc.MovReg(isa.RDI, isa.R14),
		kcc.MovReg(isa.RSI, isa.R13),
		kcc.Call("irq_set_affinity"),
		kcc.MovImm(isa.RAX, 1),
		kcc.Store(isa.R12, devices.NVMeRegIntCtl, isa.RAX),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddFunc("nvmeirq_count", true,
		kcc.GlobalLoad(isa.RAX, "nvmeirq_compl"),
		kcc.Ret(),
	)
	m.AddGlobal(kcc.Global{Name: "nvmeirq_compl", Size: 8, Init: make([]byte, 8)})
	return m
}

// nicModule builds a ring-buffer NIC driver under the given prefix; the
// E1000E, E1000 (VirtualBox) and ENA (AWS) drivers share the shape but
// are distinct modules, as in the paper's driver list.
//
// RX has two paths: the legacy poll_rx (host-driven slot polling) and a
// NAPI-style ISR registered during init. request_irq receives the
// address of the *movable* local handler — like a workqueue handler,
// the registered vector is slid by the re-randomizer when the module
// moves (§3.4). The ISR masks the device's interrupt line, drains every
// filled descriptor from its own rxhead cursor (the device re-asserts
// on unmask if frames arrived meanwhile), and unmasks — the standard
// interrupt/poll hybrid discipline of real NIC drivers.
func nicModule(prefix string, extraWork int) *kcc.Module {
	m := &kcc.Module{Name: prefix}
	g := func(s string) string { return prefix + "_" + s }
	m.AddFunc(g("init"), true,
		// args: rdi=mmio, rsi=txring, rdx=rxring, rcx=ringlen, r8=irq
		kcc.GlobalStore(g("mmio"), isa.RDI),
		kcc.GlobalStore(g("tx"), isa.RSI),
		kcc.GlobalStore(g("rx"), isa.RDX),
		kcc.GlobalStore(g("len"), isa.RCX),
		kcc.Store(isa.RDI, devices.NICRegTxRing, isa.RSI),
		kcc.Store(isa.RDI, devices.NICRegRxRing, isa.RDX),
		kcc.Store(isa.RDI, devices.NICRegRingLen, isa.RCX),
		// request_irq(irq, &napi_isr): the handler address is movable.
		kcc.MovReg(isa.RDI, isa.R8),
		kcc.GlobalAddr(isa.RSI, g("isr.napi")),
		kcc.Call("request_irq"),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	// isr.napi(line): mask → drain the RX ring from rxhead → unmask.
	m.AddFunc(g("isr.napi"), false,
		// Mask the line (IMC) so re-asserts defer while we poll.
		kcc.GlobalLoad(isa.RBX, g("mmio")),
		kcc.MovImm(isa.RAX, 1),
		kcc.Store(isa.RBX, devices.NICRegIntCtl, isa.RAX),
		kcc.Label("drain"),
		// desc = rx + (rxhead & (len-1))*16
		kcc.GlobalLoad(isa.R12, g("rx")),
		kcc.GlobalLoad(isa.RCX, g("len")),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.GlobalLoad(isa.RAX, g("rxhead")),
		kcc.Arith(kcc.OpAnd, isa.RAX, isa.RCX),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 4),
		kcc.Arith(kcc.OpAdd, isa.R12, isa.RAX),
		kcc.Load(isa.RDX, isa.R12, 8), // frame length; 0 = ring drained
		kcc.CmpImm(isa.RDX, 0),
		kcc.Br(kcc.CondEQ, "drained"),
		// Touch the payload (header parse stand-in), then consume the
		// descriptor so the device can refill the slot.
		kcc.Load(isa.RSI, isa.R12, 0),
		kcc.Load(isa.R13, isa.RSI, 0),
		kcc.MovImm(isa.RDX, 0),
		kcc.Store(isa.R12, 8, isa.RDX),
		kcc.GlobalLoad(isa.RAX, g("rxhead")),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.GlobalStore(g("rxhead"), isa.RAX),
		kcc.GlobalLoad(isa.RAX, g("rxcount")),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.GlobalStore(g("rxcount"), isa.RAX),
		kcc.Jmp("drain"),
		kcc.Label("drained"),
		// Unmask (IMS); the device re-asserts if work arrived meanwhile.
		kcc.GlobalLoad(isa.RBX, g("mmio")),
		kcc.MovImm(isa.RAX, 0),
		kcc.Store(isa.RBX, devices.NICRegIntCtl, isa.RAX),
		kcc.Ret(),
	)
	// rx_count(): frames the ISR has drained (figure/test accessor).
	m.AddFunc(g("rx_count"), true,
		kcc.GlobalLoad(isa.RAX, g("rxcount")),
		kcc.Ret(),
	)
	// xmit(buf, len, slot): fill the TX descriptor, ring the doorbell.
	xmit := []kcc.Ins{
		kcc.GlobalLoad(isa.RBX, g("tx")),
		kcc.GlobalLoad(isa.RCX, g("len")),
		// desc = tx + (slot % len)*16; slots are caller-managed and the
		// ring length is a power of two, so mask instead of dividing.
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.MovReg(isa.RAX, isa.RDX),
		kcc.Arith(kcc.OpAnd, isa.RAX, isa.RCX),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 4),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Store(isa.RBX, 0, isa.RDI),
		kcc.Store(isa.RBX, 8, isa.RSI),
	}
	// Checksum-like touch of the payload: realistic per-frame CPU work.
	xmit = append(xmit,
		kcc.MovImm(isa.RAX, 0),
		kcc.MovImm(isa.RCX, int64(extraWork)),
		kcc.Label("csum"),
		kcc.Load(isa.R12, isa.RDI, 0),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.R12),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.CmpImm(isa.RCX, 0),
		kcc.Br(kcc.CondNE, "csum"),
	)
	xmit = append(xmit,
		kcc.GlobalLoad(isa.RCX, g("mmio")),
		kcc.Store(isa.RCX, devices.NICRegTxDoorbell, isa.RDX),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddFunc(g("xmit"), true, xmit...)

	// poll_rx(slot): return the length of the frame in RX slot, clearing
	// the descriptor; 0 means empty.
	m.AddFunc(g("poll_rx"), true,
		kcc.GlobalLoad(isa.RBX, g("rx")),
		kcc.GlobalLoad(isa.RCX, g("len")),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.MovReg(isa.RAX, isa.RDI),
		kcc.Arith(kcc.OpAnd, isa.RAX, isa.RCX),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 4),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Load(isa.RAX, isa.RBX, 8), // length
		kcc.MovImm(isa.RCX, 0),
		kcc.Store(isa.RBX, 8, isa.RCX), // mark consumed
		kcc.Ret(),
	)
	for _, s := range []string{"mmio", "tx", "rx", "len", "rxhead", "rxcount"} {
		m.AddGlobal(kcc.Global{Name: g(s), Size: 8, Init: make([]byte, 8)})
	}
	return m
}

// E1000EMQ is the multi-queue (RSS) build of the server NIC: one RX
// ring, rxhead cursor and NAPI vector per hardware queue, with queue
// q's vector affine to vCPU q. Entry points:
//
//	e1000emq_init(mmio, txring, rxtab, ringlen, nq, irq0)
//	    rxtab is a guest array of nq RX ring base addresses; irq0 is the
//	    device's first vector (queue q interrupts on line irq0+q). For
//	    each queue the init programs the device's per-queue ring
//	    register, registers the shared NAPI ISR on the queue's vector
//	    and pins the vector to vCPU q via irq_set_affinity.
//	e1000emq_xmit(buf, len, slot)  — same TX path as the single-queue driver
//	e1000emq_rx_count(q)           — frames queue q's ISR has drained
//
// A single movable ISR serves every vector: it recovers the queue index
// from its line argument (q = line − irq0), then masks, drains and
// unmasks only that queue's register block and ring — so two queues'
// ISRs running concurrently on different vCPUs never share a cursor.
func E1000EMQ() *kcc.Module {
	const prefix, extraWork = "e1000emq", 8
	m := &kcc.Module{Name: prefix}
	g := func(s string) string { return prefix + "_" + s }
	m.AddFunc(g("init"), true,
		// args: rdi=mmio, rsi=txring, rdx=rxtab, rcx=ringlen, r8=nq, r9=irq0
		kcc.GlobalStore(g("mmio"), isa.RDI),
		kcc.GlobalStore(g("tx"), isa.RSI),
		kcc.GlobalStore(g("len"), isa.RCX),
		kcc.GlobalStore(g("nq"), isa.R8),
		kcc.GlobalStore(g("irqbase"), isa.R9),
		kcc.Store(isa.RDI, devices.NICRegTxRing, isa.RSI),
		kcc.Store(isa.RDI, devices.NICRegRingLen, isa.RCX),
		// Per-queue setup: r12 = q.
		kcc.MovImm(isa.R12, 0),
		kcc.Label("qsetup"),
		kcc.Cmp(isa.R12, isa.R8),
		kcc.Br(kcc.CondAE, "qdone"),
		// r13 = rxtab[q]; remember it in rxrings[q].
		kcc.MovReg(isa.RAX, isa.R12),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 3),
		kcc.MovReg(isa.RBX, isa.RDX),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Load(isa.R13, isa.RBX, 0),
		kcc.GlobalAddr(isa.RBX, g("rxrings")),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Store(isa.RBX, 0, isa.R13),
		// Program the device's per-queue RX ring register.
		kcc.GlobalLoad(isa.R14, g("mmio")),
		kcc.MovReg(isa.RAX, isa.R12),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 5), // q * NICRegQueueStride
		kcc.Arith(kcc.OpAdd, isa.R14, isa.RAX),
		kcc.Store(isa.R14, devices.NICRegQueueBase+devices.NICRegQRxRing, isa.R13),
		// request_irq(irq0+q, &napi_isr): the handler address is movable.
		kcc.MovReg(isa.RDI, isa.R9),
		kcc.Arith(kcc.OpAdd, isa.RDI, isa.R12),
		kcc.GlobalAddr(isa.RSI, g("isr.napi")),
		kcc.Call("request_irq"),
		// irq_set_affinity(irq0+q, q): queue q delivers on vCPU q.
		kcc.MovReg(isa.RDI, isa.R9),
		kcc.Arith(kcc.OpAdd, isa.RDI, isa.R12),
		kcc.MovReg(isa.RSI, isa.R12),
		kcc.Call("irq_set_affinity"),
		kcc.ArithImm(kcc.OpAdd, isa.R12, 1),
		kcc.Jmp("qsetup"),
		kcc.Label("qdone"),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	// isr.napi(line): q = line − irq0; mask queue q → drain its RX ring
	// from its own rxhead cursor → unmask queue q.
	m.AddFunc(g("isr.napi"), false,
		kcc.GlobalLoad(isa.RAX, g("irqbase")),
		kcc.MovReg(isa.R14, isa.RDI),
		kcc.Arith(kcc.OpSub, isa.R14, isa.RAX), // r14 = q
		// r13 = mmio + q*stride: base for this queue's register block.
		kcc.GlobalLoad(isa.R13, g("mmio")),
		kcc.MovReg(isa.RAX, isa.R14),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 5),
		kcc.Arith(kcc.OpAdd, isa.R13, isa.RAX),
		// Mask this queue's line so re-asserts defer while we poll.
		kcc.MovImm(isa.RAX, 1),
		kcc.Store(isa.R13, devices.NICRegQueueBase+devices.NICRegQIntCtl, isa.RAX),
		// Per-queue slot addresses: rbx=&rxrings[q], r8=&rxheads[q],
		// r9=&rxcounts[q].
		kcc.MovReg(isa.RAX, isa.R14),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 3),
		kcc.GlobalAddr(isa.RBX, g("rxrings")),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.GlobalAddr(isa.R8, g("rxheads")),
		kcc.Arith(kcc.OpAdd, isa.R8, isa.RAX),
		kcc.GlobalAddr(isa.R9, g("rxcounts")),
		kcc.Arith(kcc.OpAdd, isa.R9, isa.RAX),
		kcc.Label("drain"),
		// desc = rxrings[q] + (rxheads[q] & (len-1))*16
		kcc.Load(isa.R12, isa.RBX, 0),
		kcc.GlobalLoad(isa.RCX, g("len")),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.Load(isa.RAX, isa.R8, 0),
		kcc.Arith(kcc.OpAnd, isa.RAX, isa.RCX),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 4),
		kcc.Arith(kcc.OpAdd, isa.R12, isa.RAX),
		kcc.Load(isa.RDX, isa.R12, 8), // frame length; 0 = ring drained
		kcc.CmpImm(isa.RDX, 0),
		kcc.Br(kcc.CondEQ, "drained"),
		// Touch the payload (header parse stand-in), then consume the
		// descriptor so the device can refill the slot.
		kcc.Load(isa.RSI, isa.R12, 0),
		kcc.Load(isa.RAX, isa.RSI, 0),
		kcc.MovImm(isa.RDX, 0),
		kcc.Store(isa.R12, 8, isa.RDX),
		kcc.Load(isa.RAX, isa.R8, 0),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.Store(isa.R8, 0, isa.RAX),
		kcc.Load(isa.RAX, isa.R9, 0),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.Store(isa.R9, 0, isa.RAX),
		kcc.Jmp("drain"),
		kcc.Label("drained"),
		// Unmask; the device re-asserts if frames arrived meanwhile.
		kcc.MovImm(isa.RAX, 0),
		kcc.Store(isa.R13, devices.NICRegQueueBase+devices.NICRegQIntCtl, isa.RAX),
		kcc.Ret(),
	)
	// rx_count(q): frames queue q's ISR has drained (figure/test accessor).
	m.AddFunc(g("rx_count"), true,
		kcc.MovReg(isa.RAX, isa.RDI),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 3),
		kcc.GlobalAddr(isa.RBX, g("rxcounts")),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Load(isa.RAX, isa.RBX, 0),
		kcc.Ret(),
	)
	// xmit(buf, len, slot): identical TX path to the single-queue driver.
	xmit := []kcc.Ins{
		kcc.GlobalLoad(isa.RBX, g("tx")),
		kcc.GlobalLoad(isa.RCX, g("len")),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.MovReg(isa.RAX, isa.RDX),
		kcc.Arith(kcc.OpAnd, isa.RAX, isa.RCX),
		kcc.ArithImm(kcc.OpShl, isa.RAX, 4),
		kcc.Arith(kcc.OpAdd, isa.RBX, isa.RAX),
		kcc.Store(isa.RBX, 0, isa.RDI),
		kcc.Store(isa.RBX, 8, isa.RSI),
		kcc.MovImm(isa.RAX, 0),
		kcc.MovImm(isa.RCX, int64(extraWork)),
		kcc.Label("csum"),
		kcc.Load(isa.R12, isa.RDI, 0),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.R12),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.CmpImm(isa.RCX, 0),
		kcc.Br(kcc.CondNE, "csum"),
		kcc.GlobalLoad(isa.RCX, g("mmio")),
		kcc.Store(isa.RCX, devices.NICRegTxDoorbell, isa.RDX),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	}
	m.AddFunc(g("xmit"), true, xmit...)
	for _, s := range []string{"mmio", "tx", "len", "nq", "irqbase"} {
		m.AddGlobal(kcc.Global{Name: g(s), Size: 8, Init: make([]byte, 8)})
	}
	for _, s := range []string{"rxrings", "rxheads", "rxcounts"} {
		m.AddGlobal(kcc.Global{
			Name: g(s), Size: 8 * devices.MaxNICQueues,
			Init: make([]byte, 8*devices.MaxNICQueues),
		})
	}
	return m
}

// E1000E is the server NIC of Table 1.
func E1000E() *kcc.Module { return nicModule("e1000e", 8) }

// E1000 is the VirtualBox-era variant used in the artifact VMs.
func E1000() *kcc.Module { return nicModule("e1000", 10) }

// ENA is the AWS adapter the paper re-randomizes in SAVIOR.
func ENA() *kcc.Module { return nicModule("ena", 6) }

// Ext4Lite is the file-system module on the dd/sysbench path: an
// extent-mapping get_block plus a per-page read hook.
//
//	ext4_get_block(inode, blk) — walk a small extent table mapping file
//	                             block → LBA (returns LBA)
func Ext4Lite() *kcc.Module {
	m := &kcc.Module{Name: "ext4"}
	// Extent table: 8 extents of (firstBlk, lbaBase) pairs covering 512
	// blocks each.
	table := make([]byte, 8*16)
	for i := 0; i < 8; i++ {
		first := uint64(i * 512)
		lba := uint64(0x8000 + i*4096)
		for j := 0; j < 8; j++ {
			table[i*16+j] = byte(first >> (8 * j))
			table[i*16+8+j] = byte(lba >> (8 * j))
		}
	}
	m.AddGlobal(kcc.Global{Name: "ext4_extents", Size: uint64(len(table)), Init: table})
	m.AddFunc("ext4_get_block", true,
		// args: rdi=inode (ignored), rsi=file block
		kcc.Call("cond_resched"), // hot-path kernel helper (PLT under retpoline)
		kcc.GlobalAddr(isa.RBX, "ext4_extents"),
		kcc.MovImm(isa.RCX, 8), // extent count
		kcc.MovImm(isa.RAX, 0),
		kcc.Label("scan"),
		kcc.Load(isa.R12, isa.RBX, 0), // first block of extent
		kcc.Cmp(isa.RSI, isa.R12),
		kcc.Br(kcc.CondB, "done"), // file block below this extent: prior one wins
		// lba = extent.lbaBase + (blk - first)
		kcc.Load(isa.RAX, isa.RBX, 8),
		kcc.MovReg(isa.R13, isa.RSI),
		kcc.Arith(kcc.OpSub, isa.R13, isa.R12),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.R13),
		kcc.ArithImm(kcc.OpAdd, isa.RBX, 16),
		kcc.ArithImm(kcc.OpSub, isa.RCX, 1),
		kcc.CmpImm(isa.RCX, 0),
		kcc.Br(kcc.CondNE, "scan"),
		kcc.Label("done"),
		kcc.Ret(),
	)
	return m
}

// FuseLite is the user-space-filesystem dispatcher used as extra
// re-randomization load in Fig. 8. Its request counter is per-CPU, like
// the dummy driver's.
func FuseLite() *kcc.Module {
	m := &kcc.Module{Name: "fuse"}
	body := []kcc.Ins{
		// args: rdi=opcode. Route a few opcodes, count the rest.
		kcc.CmpImm(isa.RDI, 1), // LOOKUP
		kcc.Br(kcc.CondEQ, "hit"),
		kcc.CmpImm(isa.RDI, 3), // GETATTR
		kcc.Br(kcc.CondEQ, "hit"),
		kcc.CmpImm(isa.RDI, 15), // READ
		kcc.Br(kcc.CondEQ, "hit"),
		kcc.MovImm(isa.RAX, -38), // -ENOSYS
		kcc.Ret(),
		kcc.Label("hit"),
	}
	body = append(body, perCPUSlot(isa.RBX, "fuse_reqs")...)
	body = append(body,
		kcc.Load(isa.RCX, isa.RBX, 0),
		kcc.ArithImm(kcc.OpAdd, isa.RCX, 1),
		kcc.Store(isa.RBX, 0, isa.RCX),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddFunc("fuse_dispatch", true, body...)
	m.AddGlobal(kcc.Global{Name: "fuse_reqs", Size: 8 * MaxGuestCPUs, Init: make([]byte, 8*MaxGuestCPUs)})
	return m
}

// XHCI is the USB 3.0 host-controller driver: init + port poll.
func XHCI() *kcc.Module {
	m := &kcc.Module{Name: "xhci"}
	m.AddFunc("xhci_init", true,
		kcc.GlobalStore("xhci_mmio", isa.RDI),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddFunc("xhci_poll", true,
		kcc.GlobalLoad(isa.RBX, "xhci_mmio"),
		kcc.Load(isa.RAX, isa.RBX, devices.XHCIRegPortStatus),
		kcc.Ret(),
	)
	m.AddGlobal(kcc.Global{Name: "xhci_mmio", Size: 8, Init: make([]byte, 8)})
	return m
}

// All returns every driver in the suite, keyed by module name.
func All() map[string]func() *kcc.Module {
	return map[string]func() *kcc.Module{
		"dummy":  func() *kcc.Module { return Dummy("dummy") },
		"nvme":   NVMe,
		"e1000e": E1000E,
		"e1000":  E1000,
		"ena":    ENA,
		"ext4":   Ext4Lite,
		"fuse":   FuseLite,
		"xhci":   XHCI,
	}
}

// Extra returns the drivers that ship alongside the legacy suite but
// stay out of the suite-wide tables: Fig. 5a's per-module size rows are
// a published figure, so additions land here instead of All. Lookup
// resolves across both maps.
func Extra() map[string]func() *kcc.Module {
	return map[string]func() *kcc.Module{
		"e1000emq": E1000EMQ,
		"nvmeirq":  NVMeIRQ,
	}
}

// Lookup resolves a driver module by name across All and Extra.
func Lookup(name string) (func() *kcc.Module, bool) {
	if mk, ok := All()[name]; ok {
		return mk, true
	}
	mk, ok := Extra()[name]
	return mk, ok
}
