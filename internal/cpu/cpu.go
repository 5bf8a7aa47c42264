// Package cpu interprets AK64 machine code. It is the execution substrate
// on which loaded modules run: every instruction a driver executes —
// including the wrapper, stack-swap and return-address-encryption
// sequences Adelie injects — is fetched through the MMU (honouring NX and
// write protection), decoded and retired with cycle accounting.
//
// Core kernel functions (kmalloc, printk, VFS internals …) are not
// interpreted: they are native Go functions registered at fixed kernel
// text addresses. A call or jump that lands on a registered native address
// invokes the Go function with access to the CPU state and then performs
// return semantics. This mirrors the paper's split: Adelie re-randomizes
// and instruments modules, while the core kernel remains ordinary code
// reached through well-defined entry points.
package cpu

import (
	"encoding/binary"
	"fmt"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// Cycle cost model. The absolute values are nominal; what matters for the
// evaluation's shape is that every extra instruction Adelie injects
// (wrappers, prologues, thunks, GOT loads) costs cycles, and that TLB
// refills after re-randomization flushes are visible.
const (
	CostInst    = 1  // each retired instruction
	CostTLBMiss = 25 // page-walk on a TLB miss
	CostMMIO    = 80 // uncached device register access
)

// HostReturn is the sentinel return address pushed by Call: returning to
// it ends interpretation. It lies outside the canonical address space, so
// no mapped code can collide with it.
const HostReturn = mm.MaxVA | 1

// Native is a kernel function implemented in Go. It may read and write
// CPU registers and memory; its Cost is charged when called.
type Native struct {
	Name string
	Cost uint64
	Fn   func(c *CPU) error
}

// CPU is one virtual CPU.
type CPU struct {
	ID   int
	Regs [isa.NumRegs]uint64
	RIP  uint64

	// flags holds the outcome of the last CMP/TEST as ZF | SF<<1 | CF<<2:
	// equal, signed less-than, unsigned below (AK64 simplification: ALU
	// operations do not update flags; compiled code always compares
	// explicitly). It is condTaken's bit index.
	flags uint8

	AS  *mm.AddressSpace
	TLB *mm.TLB

	// Kernel is the machine state natives act on (the *kernel.Kernel
	// that created or cloned this vCPU). A native table is shared by a
	// fork template and its forks, so a native reaches its own
	// machine through the calling vCPU, never through a closure.
	Kernel any

	natives map[uint64]*Native

	// nativeLo/nativeHi bound the VAs that can hold native entry points,
	// letting the block hot path replace the natives map probe with a
	// range compare for module RIPs. The zero-CPU default is the full
	// address space (always probe); the kernel narrows it to its text
	// region at boot, and RegisterNative widens it as needed.
	nativeLo, nativeHi uint64

	Cycles uint64 // cycles consumed
	Insts  uint64 // instructions retired

	fetchBuf [isa.MaxInstLen]byte

	// blocks is the per-vCPU superblock cache: decoded basic blocks per
	// physical frame, keyed by entry offset and validated by the frame's
	// content version. Keying by frame (not VA) means a zero-copy
	// re-randomization remap — same frames, new addresses — keeps its
	// blocks warm, mirroring how the paper's moves never copy module
	// text. See superblock.go.
	blocks map[mm.FrameID]*pageBlocks

	// lastBlockFrame/lastPB short-circuit the blocks map for the common
	// case of consecutive blocks on the same page.
	lastBlockFrame mm.FrameID
	lastPB         *pageBlocks

	// entry is the dispatch entry cache: a small direct-mapped cache of
	// dispatch-path block resolutions keyed by entry VA, validated by
	// the same triple as a trace link. It lets a repeated Call (or any
	// repeated dispatch to the same VA — syscall entries, ISR handlers)
	// re-enter its hot trace without the dispatch-table resolution.
	// Active only with chainOn; see stepBlock.
	entry [entryCacheSlots]entryLink

	// blockGen is the native-table epoch of every cached superblock.
	// invalidateBlocks bumps it, so chain links — which hold direct
	// superblock pointers that bypass the blocks map — can never follow
	// into a block built under stale native boundaries (see superblock.go).
	blockGen uint64

	// chainOn enables superblock trace linking on this vCPU. It is
	// latched from the package-wide default (SetChaining, ADELIE_NOCHAIN)
	// at New so a toggle mid-measurement cannot desynchronize lanes.
	chainOn bool

	// indirectOn enables the monomorphic indirect-branch target cache,
	// latched from the package-wide default (SetIndirect,
	// ADELIE_NOINDIRECT) the same way. Meaningful only with chainOn.
	indirectOn bool

	// memFast arms the TLB resident word probes (mm.TLB.LoadPage and
	// StorePage) inside a block's execute loop: between block boundaries no native,
	// actor or IRQ can run, so the address-space generation cannot change
	// and the per-access generation re-check is redundant. Cleared at
	// every block boundary and on a block's first MMIO access or
	// slow-path store.
	memFast bool

	// run is the running trace's state: the trace whose boundary
	// records execBlock runs (see runTrace).
	run traceRun

	// path holds the paths runChain is recording, a nested Call's above
	// its caller's, in path1 or in pathBuf (see pushStep); pathID numbers
	// them, and a block's mark holds the id of the last path that ran it.
	path    []pathStep
	path1   [1]pathStep
	pathBuf *[]pathStep
	pathID  uint64

	// Blocks counts basic blocks retired via block execution. The engine
	// samples it per round slot the same way it samples Cycles.
	Blocks uint64

	// ChainedBlocks counts the subset of Blocks entered through a
	// validated cached link instead of a full dispatch resolution: a
	// trace link from the preceding block (direct or indirect,
	// including the return-target link of an inlined native call) or
	// the per-vCPU dispatch entry cache. The engine samples it
	// alongside Blocks; the chain rate ChainedBlocks/Blocks is the
	// fraction of block entries that skipped the dispatch tables.
	ChainedBlocks uint64

	// IndirectChained counts the subset of ChainedBlocks entered through
	// the monomorphic indirect target cache (RET/indirect exits whose
	// dynamic target matched the cached successor).
	IndirectChained uint64

	// blockHits/blockMisses count superblock consultations;
	// chainMisses counts linkable block exits that had to fall back to
	// the dispatch path (ChainedBlocks is the hit count). Metrics only.
	blockHits, blockMisses uint64
	chainMisses            uint64

	// sampler, when non-nil, is the observability profiler hook: invoked
	// with the current RIP every sampleEvery simulated cycles, checked at
	// block-retire boundaries (and native/single-step retires) so the
	// disabled cost is one predicted nil-compare per block. Samples are
	// driven by the virtual clock (c.Cycles), never host time, and must
	// not mutate guest state — the figure contract is that attaching a
	// sampler changes nothing simulated.
	sampler     func(va uint64)
	sampleEvery uint64
	sampleNext  uint64
}

// New returns a CPU executing in the given address space.
func New(id int, as *mm.AddressSpace) *CPU {
	return &CPU{
		ID: id, AS: as, TLB: mm.NewTLB(as),
		natives:        make(map[uint64]*Native),
		nativeHi:       ^uint64(0),
		blocks:         make(map[mm.FrameID]*pageBlocks),
		lastBlockFrame: mm.NoFrame,
		chainOn:        chainingEnabled.Load(),
		indirectOn:     indirectEnabled.Load(),
	}
}

// BlockCacheStats returns the superblock cache hit/miss counts.
func (c *CPU) BlockCacheStats() (hits, misses uint64) {
	return c.blockHits, c.blockMisses
}

// ChainStats returns the trace-linking counters: hits is the number of
// blocks entered by following a chain link (== ChainedBlocks, direct and
// indirect alike), misses the number of link-eligible block exits that
// dispatched instead.
func (c *CPU) ChainStats() (hits, misses uint64) {
	return c.ChainedBlocks, c.chainMisses
}

// RegisterNative installs a native kernel function at va. The page
// containing va must be mapped executable by the caller (the kernel image
// region) so that translation succeeds before dispatch.
func (c *CPU) RegisterNative(va uint64, n *Native) {
	c.natives[va] = n
	if va < c.nativeLo {
		c.nativeLo = va
	}
	if va >= c.nativeHi {
		c.nativeHi = va + 1
	}
	// A cached superblock may span the new entry point; native
	// boundaries are baked in at build time, so drop the cache.
	c.invalidateBlocks()
}

// SetNatives installs a shared native dispatch table (the kernel's).
// Natives the owner defines in the shared table later must fall inside
// the range declared via SetNativeRange (the kernel's text region
// guarantees this).
func (c *CPU) SetNatives(m map[uint64]*Native) {
	c.natives = m
	c.invalidateBlocks()
}

// SetNativeRange narrows the VA window that can hold native entry
// points. Every address passed to RegisterNative (or registered in a
// shared table) must fall inside [lo, hi) — the kernel passes its text
// region, which also bounds natives it defines later.
func (c *CPU) SetNativeRange(lo, hi uint64) {
	c.nativeLo, c.nativeHi = lo, hi
	c.invalidateBlocks()
}

// NativeTable returns the CPU's native dispatch table.
func (c *CPU) NativeTable() map[uint64]*Native { return c.natives }

// SetSampler installs (or, with a nil fn, removes) the profiler sample
// hook: fn is called with the current RIP every `every` simulated
// cycles, at the next block/native/instruction retire after the period
// elapses. The hook observes only — it runs inside the vCPU's op on
// the engine's goroutine and must not touch guest state or charge
// cycles.
func (c *CPU) SetSampler(every uint64, fn func(va uint64)) {
	if fn == nil || every == 0 {
		c.sampler, c.sampleEvery, c.sampleNext = nil, 0, 0
		return
	}
	c.sampler = fn
	c.sampleEvery = every
	c.sampleNext = c.Cycles + every
}

// takeSample fires the sampler and arms the next period. Kept out of
// line so the retire-path check stays a two-word compare.
func (c *CPU) takeSample() {
	c.sampleNext = c.Cycles + c.sampleEvery
	c.sampler(c.RIP)
}

// Fault is an execution error with machine context attached.
type Fault struct {
	RIP    uint64
	CPU    int
	Reason string
	Err    error
}

func (f *Fault) Error() string {
	if f.Err != nil {
		return fmt.Sprintf("cpu%d fault at rip=%#x: %s: %v", f.CPU, f.RIP, f.Reason, f.Err)
	}
	return fmt.Sprintf("cpu%d fault at rip=%#x: %s", f.CPU, f.RIP, f.Reason)
}

func (f *Fault) Unwrap() error { return f.Err }

func (c *CPU) fault(reason string, err error) error {
	return &Fault{RIP: c.RIP, CPU: c.ID, Reason: reason, Err: err}
}

// load64 reads a 64-bit value through the TLB with cycle accounting.
// TLB hits on ordinary memory are served straight from the frame bytes
// cached in the entry — no page walk, no allocator lock. Inside a block
// (memFast armed), and outside one whenever the TLB is current (a native,
// Call's push), the lookup is the resident fast probe: one front-cache
// index, identical hit accounting; an MMIO hit disarms the probe for the
// rest of the block and re-charges through the slow path so device
// accounting stays on one code path.
func (c *CPU) load64(va uint64) (uint64, error) {
	if c.memFast || c.TLB.Current() {
		if b, ok := c.TLB.LoadPage(va); ok {
			off := va & mm.PageMask
			return binary.LittleEndian.Uint64(b[off : off+8]), nil
		}
		// Declined: L1 miss, MMIO page, or straddling access. The full
		// probe below re-runs the L1 lookup with identical accounting.
	}
	e, hit, err := c.TLB.Entry(va, mm.AccessRead)
	if err != nil {
		return 0, err
	}
	if !hit {
		c.Cycles += CostTLBMiss
	}
	if e.Flags&mm.FlagMMIO != 0 {
		c.memFast = false // device access: slow accounting path from here on
		c.Cycles += CostMMIO
		return c.AS.Read64Entry(e, va) // device register routing, no second walk
	}
	off := va & mm.PageMask
	if off+8 <= mm.PageSize {
		return binary.LittleEndian.Uint64(e.Bytes()[off : off+8]), nil
	}
	return c.AS.Read64(va) // page-straddling access: slow path
}

// store64 writes a 64-bit value through the TLB with cycle accounting.
// The resident probe applies exactly as in load64.
func (c *CPU) store64(va uint64, val uint64) error {
	if c.memFast || c.TLB.Current() {
		if b, ok := c.TLB.StorePage(va); ok {
			off := va & mm.PageMask
			binary.LittleEndian.PutUint64(b[off:off+8], val)
			return nil
		}
		// Declined: L1 miss, MMIO, read-only, a fork's first store to
		// the page, exec-mapped, or straddling. The full probe below
		// reproduces accounting and faults verbatim (and performs the
		// COW detach / version bump). Only this path can bump a frame's
		// content version, so it disarms the probes: a trace re-checks
		// its frames at the next boundary.
		c.memFast = false
	}
	e, hit, err := c.TLB.Entry(va, mm.AccessWrite)
	if err != nil {
		return err
	}
	if !hit {
		c.Cycles += CostTLBMiss
	}
	if e.Flags&mm.FlagMMIO != 0 {
		c.memFast = false // device access: slow accounting path from here on
		c.Cycles += CostMMIO
		return c.AS.Write64Entry(e, va, val) // device register routing, no second walk
	}
	off := va & mm.PageMask
	if off+8 <= mm.PageSize {
		// A write translation is direct and private: Entry detached a
		// copy-on-write shared frame, so the store writes e's record.
		binary.LittleEndian.PutUint64(e.WritableBytes()[off:off+8], val)
		e.NoteWrite()
		return nil
	}
	return c.AS.Write64(va, val) // page-straddling access: slow path
}

// Push pushes val onto the stack.
func (c *CPU) Push(val uint64) error {
	c.Regs[isa.RSP] -= 8
	return c.store64(c.Regs[isa.RSP], val)
}

// Pop pops the top of stack.
func (c *CPU) Pop() (uint64, error) {
	v, err := c.load64(c.Regs[isa.RSP])
	if err != nil {
		return 0, err
	}
	c.Regs[isa.RSP] += 8
	return v, nil
}

// fetch decodes the instruction at RIP straight from the frame bytes,
// enforcing execute permission. Step is the only caller: block execution
// reaches it only at an entry that cannot start a block (an instruction
// straddling the page end, or bytes that do not decode).
func (c *CPU) fetch() (inst, error) {
	rip := c.RIP
	e, hit, err := c.TLB.Entry(rip, mm.AccessExec)
	if err != nil {
		return inst{}, err
	}
	if !hit {
		c.Cycles += CostTLBMiss
	}
	off := int(rip & mm.PageMask)
	page := e.Bytes()
	in, derr := isa.Decode(page[off:])
	if derr == isa.ErrTruncated && mm.PageSize-off < isa.MaxInstLen {
		// Instruction straddles the page boundary: splice the head bytes
		// with the start of the next page (which must be executable) and
		// decode once more.
		n := copy(c.fetchBuf[:], page[off:])
		pageEnd := (rip &^ mm.PageMask) + mm.PageSize
		e2, hit2, err := c.TLB.Entry(pageEnd, mm.AccessExec)
		if err != nil {
			return inst{}, err
		}
		if !hit2 {
			c.Cycles += CostTLBMiss
		}
		m := copy(c.fetchBuf[n:], e2.Bytes())
		in, derr = isa.Decode(c.fetchBuf[:n+m])
	}
	if derr != nil {
		return inst{}, derr
	}
	return decoded(in), nil
}

// Step executes a single instruction. It returns (halted, error); halted
// is true after HLT or a return to HostReturn.
func (c *CPU) Step() (bool, error) {
	if c.RIP == HostReturn {
		return true, nil
	}
	// Native dispatch: control has landed on a kernel entry point.
	if c.RIP >= c.nativeLo && c.RIP < c.nativeHi {
		if n, ok := c.natives[c.RIP]; ok {
			return c.runNative(n)
		}
	}

	in, err := c.fetch()
	if err != nil {
		return false, c.fault("fetch", err)
	}
	c.Insts++
	c.Cycles += CostInst
	if c.sampler != nil && c.Cycles >= c.sampleNext {
		c.takeSample()
	}
	_, halted, err := c.execBlock([]inst{in})
	return halted, err
}

// runNative invokes a native kernel function at c.RIP and performs its
// return semantics.
func (c *CPU) runNative(n *Native) (bool, error) {
	c.Cycles += n.Cost
	if c.sampler != nil && c.Cycles >= c.sampleNext {
		c.takeSample() // RIP still holds the native's entry VA
	}
	if err := n.Fn(c); err != nil {
		return false, c.fault("native "+n.Name, err)
	}
	ret, err := c.Pop()
	if err != nil {
		return false, c.fault("native return", err)
	}
	c.RIP = ret
	return c.RIP == HostReturn, nil
}

// DefaultMaxInsts bounds a single Call to catch runaway module code.
const DefaultMaxInsts = 50_000_000

// Run executes instructions until halt, fault, or the instruction budget
// is exhausted. The hot path retires whole basic blocks — chained
// block→block along hot traces (see superblock.go) — per iteration; the
// budget is checked at chain granularity (at most maxChainBlocks blocks),
// which only affects how far past the limit a runaway module gets before
// the fault fires.
func (c *CPU) Run(maxInsts uint64) error {
	start := c.Insts
	for {
		halted, err := c.stepBlock()
		if err != nil {
			return err
		}
		if halted {
			return nil
		}
		if c.Insts-start > maxInsts {
			return c.fault(fmt.Sprintf("instruction budget (%d) exhausted", maxInsts), nil)
		}
	}
}

// Call invokes the function at va with up to six integer arguments in the
// SysV argument registers, runs until the function returns, and yields
// RAX. The current RSP must point at a valid stack. Call nests: native
// functions may use it to invoke module entry points (kernel → module
// callbacks).
func (c *CPU) Call(va uint64, args ...uint64) (uint64, error) {
	if len(args) > len(isa.ArgRegs) {
		return 0, fmt.Errorf("cpu: Call with %d args; only %d register args supported", len(args), len(isa.ArgRegs))
	}
	for i, a := range args {
		c.Regs[isa.ArgRegs[i]] = a
	}
	savedRIP := c.RIP
	if err := c.Push(HostReturn); err != nil {
		return 0, err
	}
	c.RIP = va
	if err := c.Run(DefaultMaxInsts); err != nil {
		return 0, err
	}
	c.RIP = savedRIP
	return c.Regs[isa.RAX], nil
}
