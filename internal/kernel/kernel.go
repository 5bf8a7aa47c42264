// Package kernel simulates the Linux kernel environment Adelie patches:
// the kernel image with its exported symbol table, the module loader with
// Adelie's PIC and re-randomization support (paper §4.1–4.2), a kmalloc
// heap, per-CPU kernel stacks, and KASLR placement policies.
//
// The package corresponds to the paper's in-kernel changes: the ~727 LoC
// of PIC module support plus the ~2815 LoC common re-randomization part.
// Policy (when to re-randomize, period selection, the randomizer kthread)
// lives in internal/rerand on top of the mechanisms exposed here.
package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"adelie/internal/cpu"
	"adelie/internal/mm"
	"adelie/internal/smr"
)

// KASLRMode selects the module placement policy.
type KASLRMode int

const (
	// KASLRVanilla places modules in a 2 GB window near the kernel image,
	// 4 KB aligned — the stock Linux policy whose ~19 bits of entropy the
	// paper's §6 calls brute-forceable.
	KASLRVanilla KASLRMode = iota
	// KASLRFull64 places modules anywhere in the kernel half of the
	// 57-bit space — Adelie's PIC-enabled policy (~44 bits of entropy at
	// page alignment).
	KASLRFull64
)

func (m KASLRMode) String() string {
	if m == KASLRVanilla {
		return "vanilla"
	}
	return "full64"
}

// Config configures a simulated kernel.
type Config struct {
	NumCPUs int   // number of vCPUs (default 20, matching the paper's testbed)
	Seed    int64 // RNG seed; all placement decisions derive from it
	KASLR   KASLRMode
	// Reclaimer is the SMR scheme for delayed unmapping; nil selects
	// Hyaline with NumCPUs+1 slots (one per CPU plus the re-randomizer).
	Reclaimer smr.Reclaimer
	// DisableFig4Patching turns off the loader's run-time patching of
	// local GOT/PLT accesses (paper Fig. 4). Ablation only: every local
	// symbol then keeps a GOT slot (and PLT stub under retpoline),
	// inflating the tables the paper's optimizations shrink and exposing
	// more absolute addresses to leakage.
	DisableFig4Patching bool
}

// MaxCPUs bounds the vCPU count of a machine. Drivers carry per-CPU
// data arrays sized for this many CPUs (drivers.MaxGuestCPUs mirrors
// it), so a larger machine would make guest per-CPU stores run past
// their arrays; New rejects it up front.
const MaxCPUs = 64

// Fixed layout constants for the simulated kernel half.
const (
	kernelImageSpan = 1 << 30 // kernel image lands in the first GB of the half
	kernelTextPages = 16      // native entry points live here
	vanillaModSpan  = 1 << 31 // 2 GB module window in vanilla mode
	heapSpan        = 1 << 32 // kmalloc region
	stackSpan       = 1 << 30 // kernel stacks region

	// KernelStackPages is the size of each kernel stack (16 KB, like
	// Linux's THREAD_SIZE on x86-64).
	KernelStackPages = 4

	nativeSlot = 16 // bytes reserved per native entry point
)

// Kernel is the simulated kernel.
type Kernel struct {
	Cfg  Config
	AS   *mm.AddressSpace
	Rand *rand.Rand
	SMR  smr.Reclaimer

	mu       sync.Mutex
	symbols  map[string]uint64      // exported symbol table (kernel + modules)
	natives  map[uint64]*cpu.Native // shared dispatch table
	textBase uint64                 // kernel image base (randomized)
	textNext uint64                 // next free native slot

	heapBase   uint64
	heapNext   uint64
	heapFree   map[uint64][]uint64 // size class → free VAs
	heapSizes  map[uint64]uint64   // allocation VA → rounded size
	heapMapped uint64              // end of mapped heap pages

	stackBase uint64
	stackNext uint64

	// regions tracks every allocated VA interval for collision-free
	// randomized placement.
	regions []vaRegion

	modules map[string]*Module

	// cpus holds the vCPUs. A booted kernel fills every slot; a fork
	// fills slot i on first access by cloning cpuTmpl[i] (see CPU).
	cpus    []atomic.Pointer[cpu.CPU]
	cpuTmpl []*cpu.CPU

	workqueue []workItem
	isrs      map[int]isrEntry // IRQ line → {handler VA, affinity vCPU} (see irq.go)

	// irqRouter mirrors ISR affinity into the bus's vector table. Machine
	// wiring, installed by sim and re-installed on fork — never copied.
	irqRouter func(line, vcpu int)

	log []string // printk buffer

	moduleRangeLo, moduleRangeHi uint64 // placement window for modules

	// randSrc is the counting source under Rand. Fork copies its seed
	// and draw count, so the clone's random stream continues bit-exactly
	// where the template's stopped; the clone seeds a generator only
	// when it first draws.
	randSrc *countingSource
}

// countingSource is a math/rand source that counts every draw. Both
// Int63 and Uint64 advance the underlying generator state by exactly one
// step, so (seed, draws) fully determines the stream position. The
// generator is seeded — and advanced to that position — on the first
// draw, so a source copied at a fork that never draws costs nothing.
type countingSource struct {
	seed int64
	n    uint64
	src  rand.Source64 // nil until the first draw
}

// gen returns the generator at stream position n, seeding it first if
// this source has not drawn yet.
func (s *countingSource) gen() rand.Source64 {
	if s.src == nil {
		src := rand.NewSource(s.seed).(rand.Source64)
		for i := uint64(0); i < s.n; i++ {
			src.Uint64()
		}
		s.src = src
	}
	return s.src
}

func (s *countingSource) Int63() int64 {
	v := s.gen().Int63()
	s.n++
	return v
}

func (s *countingSource) Uint64() uint64 {
	v := s.gen().Uint64()
	s.n++
	return v
}

func (s *countingSource) Seed(seed int64) {
	s.seed, s.n, s.src = seed, 0, nil
}

type vaRegion struct{ lo, hi uint64 }

// New boots a simulated kernel.
func New(cfg Config) (*Kernel, error) {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 20
	}
	if cfg.NumCPUs > MaxCPUs {
		return nil, fmt.Errorf("kernel: NumCPUs %d exceeds MaxCPUs %d (per-CPU driver arrays are sized for MaxCPUs)", cfg.NumCPUs, MaxCPUs)
	}
	src := &countingSource{seed: cfg.Seed}
	k := &Kernel{
		Cfg:       cfg,
		AS:        mm.NewAddressSpace(mm.NewPhysMem()),
		Rand:      rand.New(src),
		randSrc:   src,
		symbols:   make(map[string]uint64),
		natives:   make(map[uint64]*cpu.Native),
		heapFree:  make(map[uint64][]uint64),
		heapSizes: make(map[uint64]uint64),
		modules:   make(map[string]*Module),
	}
	if cfg.Reclaimer != nil {
		k.SMR = cfg.Reclaimer
	} else {
		k.SMR = smr.NewHyaline(cfg.NumCPUs + 1)
	}

	// KASLR for the kernel image itself: a page-aligned base inside the
	// first GB of the kernel half (the PIE patch's job, paper §2.3; we
	// treat it as already applied).
	off := uint64(k.Rand.Int63n(kernelImageSpan-kernelTextPages*mm.PageSize)) &^ mm.PageMask
	k.textBase = mm.KernelBase + off
	if _, err := k.AS.MapRegion(k.textBase, kernelTextPages, mm.FlagExec); err != nil {
		return nil, fmt.Errorf("kernel: mapping image: %w", err)
	}
	k.claim(k.textBase, kernelTextPages*mm.PageSize)
	k.textNext = k.textBase

	// Heap and stack regions sit at fixed offsets above the image span.
	k.heapBase = mm.KernelBase + 2*kernelImageSpan
	k.heapNext = k.heapBase
	k.heapMapped = k.heapBase
	k.claim(k.heapBase, heapSpan)
	k.stackBase = k.heapBase + heapSpan
	k.stackNext = k.stackBase
	k.claim(k.stackBase, stackSpan)

	// Module placement window.
	switch cfg.KASLR {
	case KASLRVanilla:
		// Within ±2 GB of the image so rel32 calls reach the kernel.
		k.moduleRangeLo = k.textBase + kernelTextPages*mm.PageSize
		k.moduleRangeHi = k.textBase + vanillaModSpan
	default:
		k.moduleRangeLo = mm.KernelBase + 2*kernelImageSpan + heapSpan + stackSpan
		k.moduleRangeHi = mm.MaxVA
	}

	k.registerCoreNatives()

	k.cpus = make([]atomic.Pointer[cpu.CPU], cfg.NumCPUs)
	for i := range k.cpus {
		c := cpu.New(i, k.AS)
		c.SetNatives(k.natives)
		// All natives — including ones defined after boot — live inside
		// the kernel text region, so module RIPs skip the dispatch probe.
		c.SetNativeRange(k.textBase, k.textBase+kernelTextPages*mm.PageSize)
		stack, err := k.AllocStack()
		if err != nil {
			return nil, err
		}
		c.Regs[4] = stack // RSP
		k.cpus[i].Store(c)
	}
	return k, nil
}

// claim records a VA interval as occupied.
func (k *Kernel) claim(base, size uint64) {
	k.regions = append(k.regions, vaRegion{lo: base, hi: base + size})
}

// release removes a claimed interval (module unload / re-randomization).
func (k *Kernel) release(base, size uint64) {
	for i, r := range k.regions {
		if r.lo == base && r.hi == base+size {
			k.regions = append(k.regions[:i], k.regions[i+1:]...)
			return
		}
	}
}

func (k *Kernel) overlaps(lo, hi uint64) bool {
	for _, r := range k.regions {
		if lo < r.hi && r.lo < hi {
			return true
		}
	}
	return false
}

// randomRegion picks a page-aligned, collision-free base for size bytes
// within [lo, hi). This is the KASLR placement primitive; the window
// passed in determines the entropy (§6).
func (k *Kernel) randomRegion(size uint64, lo, hi uint64) (uint64, error) {
	size = (size + mm.PageMask) &^ mm.PageMask
	if hi <= lo+size {
		return 0, fmt.Errorf("kernel: placement window [%#x,%#x) too small for %d bytes", lo, hi, size)
	}
	span := hi - lo - size
	for attempt := 0; attempt < 256; attempt++ {
		base := lo + (uint64(k.Rand.Int63())%span)&^mm.PageMask
		if !k.overlaps(base, base+size) {
			k.claim(base, size)
			return base, nil
		}
	}
	return 0, fmt.Errorf("kernel: no free region of %d bytes in [%#x,%#x)", size, lo, hi)
}

// DefineNative installs a native kernel function under the given exported
// name and returns its address. Cost is the cycle charge per call.
func (k *Kernel) DefineNative(name string, cost uint64, fn func(c *cpu.CPU) error) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.defineNativeLocked(name, cost, fn)
}

func (k *Kernel) defineNativeLocked(name string, cost uint64, fn func(c *cpu.CPU) error) uint64 {
	if _, dup := k.symbols[name]; dup {
		panic(fmt.Sprintf("kernel: duplicate symbol %q", name))
	}
	va := k.textNext
	if va+nativeSlot > k.textBase+kernelTextPages*mm.PageSize {
		panic("kernel: native text region exhausted")
	}
	k.textNext += nativeSlot
	k.natives[va] = &cpu.Native{Name: name, Cost: cost, Fn: fn}
	k.symbols[name] = va
	return va
}

// Symbol resolves an exported symbol.
func (k *Kernel) Symbol(name string) (uint64, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.symbols[name]
	return v, ok
}

// ExportSymbol publishes a symbol (module exports during load).
func (k *Kernel) ExportSymbol(name string, va uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.symbols[name]; dup {
		return fmt.Errorf("kernel: duplicate exported symbol %q", name)
	}
	k.symbols[name] = va
	return nil
}

// Symbols returns the exported symbol names, sorted.
func (k *Kernel) Symbols() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, 0, len(k.symbols))
	for n := range k.symbols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CPU returns vCPU i. On a fork the vCPU is cloned from the frozen
// template on first access; the fast path is a load and a nil check,
// written to fit the compiler's inlining budget.
func (k *Kernel) CPU(i int) (c *cpu.CPU) {
	if c = k.cpus[i].Load(); c == nil {
		return k.materializeCPU(i)
	}
	return
}

// materializeCPU clones vCPU i from its template. The clone is a pure
// function of the frozen template and this kernel's address space, so
// when two callers race the loser's copy is dropped and both see the
// winner's.
func (k *Kernel) materializeCPU(i int) *cpu.CPU {
	c := k.cpuTmpl[i].CloneFor(k.AS, k.natives)
	if k.cpus[i].CompareAndSwap(nil, c) {
		return c
	}
	return k.cpus[i].Load()
}

// LoadedCPU returns vCPU i if it already exists, or nil if it is a
// fork's vCPU that nothing has touched yet. Callers that only reset
// per-vCPU state a fresh clone never has use it to avoid cloning.
func (k *Kernel) LoadedCPU(i int) *cpu.CPU { return k.cpus[i].Load() }

// NumCPUs returns the configured CPU count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Module returns a loaded module by name.
func (k *Kernel) Module(name string) (*Module, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	m, ok := k.modules[name]
	return m, ok
}

// Modules returns all loaded modules sorted by name.
func (k *Kernel) Modules() []*Module {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Module, 0, len(k.modules))
	for _, m := range k.modules {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Kmalloc allocates size bytes from the kernel heap and returns the VA.
// Allocations are rounded to 64-byte classes with simple per-class free
// lists; heap pages are mapped on demand.
func (k *Kernel) Kmalloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	class := (size + 63) &^ 63
	if list := k.heapFree[class]; len(list) > 0 {
		va := list[len(list)-1]
		k.heapFree[class] = list[:len(list)-1]
		k.heapSizes[va] = class
		return va, nil
	}
	va := k.heapNext
	end := va + class
	if end > k.heapBase+heapSpan {
		return 0, fmt.Errorf("kernel: kmalloc: heap exhausted")
	}
	// Map any new pages the allocation touches.
	for k.heapMapped < end {
		if _, err := k.AS.MapRegion(k.heapMapped, 1, mm.FlagWrite); err != nil {
			return 0, err
		}
		k.heapMapped += mm.PageSize
	}
	k.heapNext = end
	k.heapSizes[va] = class
	return va, nil
}

// Kfree releases a kmalloc allocation back to its size class.
func (k *Kernel) Kfree(va uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	class, ok := k.heapSizes[va]
	if !ok {
		return fmt.Errorf("kernel: kfree of unknown address %#x", va)
	}
	delete(k.heapSizes, va)
	k.heapFree[class] = append(k.heapFree[class], va)
	return nil
}

// AllocStack maps a fresh kernel stack (with an unmapped guard page below)
// and returns its top-of-stack VA.
func (k *Kernel) AllocStack() (uint64, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	base := k.stackNext + mm.PageSize // skip guard page
	if base+KernelStackPages*mm.PageSize > k.stackBase+stackSpan {
		return 0, fmt.Errorf("kernel: stack region exhausted")
	}
	k.stackNext = base + KernelStackPages*mm.PageSize
	if _, err := k.AS.MapRegion(base, KernelStackPages, mm.FlagWrite); err != nil {
		return 0, err
	}
	return base + KernelStackPages*mm.PageSize, nil
}

// FreeStack unmaps a stack previously returned by AllocStack.
func (k *Kernel) FreeStack(top uint64) error {
	base := top - KernelStackPages*mm.PageSize
	return k.AS.UnmapRegion(base, KernelStackPages, true)
}

// Printk appends a line to the kernel log.
func (k *Kernel) Printk(s string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.log = append(k.log, s)
}

// Dmesg returns the kernel log.
func (k *Kernel) Dmesg() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.log...)
}

// KernelTextBase returns the randomized base of the kernel image.
func (k *Kernel) KernelTextBase() uint64 { return k.textBase }

// ModuleWindow returns the placement window used for modules; its width
// determines the KASLR entropy available to attacks (§6).
func (k *Kernel) ModuleWindow() (lo, hi uint64) { return k.moduleRangeLo, k.moduleRangeHi }

// readCString reads a NUL-terminated string (capped) from guest memory.
func readCString(as *mm.AddressSpace, va uint64, max int) string {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := as.ReadBytes(va+uint64(i), 1)
		if err != nil || b[0] == 0 {
			break
		}
		out = append(out, b[0])
	}
	return string(out)
}

// nativeDef pairs a native's identity with its implementation; the core
// API is expressed as a def list so a forked kernel can re-create the
// closures bound to itself at the symbol addresses the template already
// assigned (see rebindCoreNatives).
type nativeDef struct {
	name string
	cost uint64
	fn   func(c *cpu.CPU) error
}

// coreNativeDefs builds the kernel API every module may import, with
// every closure capturing this kernel. Costs are nominal cycle charges
// standing in for the real routines' work.
func (k *Kernel) coreNativeDefs() []nativeDef {
	return []nativeDef{
		{"printk", 150, func(c *cpu.CPU) error {
			k.Printk(readCString(k.AS, c.Regs[7], 256)) // RDI
			c.Regs[0] = 0
			return nil
		}},
		{"kmalloc", 120, func(c *cpu.CPU) error {
			va, err := k.Kmalloc(c.Regs[7])
			if err != nil {
				return err
			}
			c.Regs[0] = va
			return nil
		}},
		{"kfree", 90, func(c *cpu.CPU) error {
			return k.Kfree(c.Regs[7])
		}},
		{"memset64", 40, func(c *cpu.CPU) error {
			// memset64(dst, val, nwords)
			dst, val, n := c.Regs[7], c.Regs[6], c.Regs[2]
			for i := uint64(0); i < n; i++ {
				if err := k.AS.Write64(dst+8*i, val); err != nil {
					return err
				}
			}
			c.Cycles += n / 4
			return nil
		}},
		{"memcpy64", 40, func(c *cpu.CPU) error {
			// memcpy64(dst, src, nwords)
			dst, src, n := c.Regs[7], c.Regs[6], c.Regs[2]
			for i := uint64(0); i < n; i++ {
				v, err := k.AS.Read64(src + 8*i)
				if err != nil {
					return err
				}
				if err := k.AS.Write64(dst+8*i, v); err != nil {
					return err
				}
			}
			c.Cycles += n / 2
			return nil
		}},
		// cond_resched is the canonical cheap kernel helper drivers call on
		// hot paths; under retpoline+PIC it is reached through a PLT stub,
		// which is exactly where Fig. 5b's "slight performance hit of the
		// PIC code" comes from.
		{"cond_resched", 10, func(c *cpu.CPU) error {
			return nil
		}},
		// smp_processor_id returns the executing vCPU's index. Drivers use it
		// to address per-CPU state (counters, per-CPU device queue slots) so
		// their data paths are SMP-correct when the engine runs operations on
		// several vCPUs — the same this_cpu_* discipline real Linux drivers
		// follow.
		{"smp_processor_id", 5, func(c *cpu.CPU) error {
			c.Regs[0] = uint64(c.ID) // RAX
			return nil
		}},
		// queue_work(fn, arg) defers fn(arg) to workqueue context (§3.4).
		{"queue_work", 80, func(c *cpu.CPU) error {
			k.QueueWork(c.Regs[7], c.Regs[6]) // RDI, RSI
			c.Regs[0] = 0
			return nil
		}},
		// request_irq(line, handler) registers an interrupt service routine,
		// affine to vCPU 0 (the legacy target) until irq_set_affinity moves
		// it. Like queue_work, the handler address may point into the
		// module's movable part; the re-randomizer slides registered vectors
		// on moves.
		{"request_irq", 150, func(c *cpu.CPU) error {
			k.RegisterISR(int(c.Regs[7]), c.Regs[6], 0) // RDI, RSI
			c.Regs[0] = 0
			return nil
		}},
		// mr_start / mr_finish bracket externally-initiated module calls
		// (paper §3.4). The slot is the executing CPU.
		{"mr_start", 30, func(c *cpu.CPU) error {
			k.SMR.Enter(c.ID)
			return nil
		}},
		{"mr_finish", 30, func(c *cpu.CPU) error {
			k.SMR.Leave(c.ID)
			return nil
		}},
		// irq_set_affinity(line, cpu) points an interrupt vector at a target
		// vCPU — the guest half of MSI-X routing. Multi-queue drivers call
		// it per queue after request_irq so each queue's ISR runs on its own
		// lane. Appended after every pre-existing native: natives allocate
		// text addresses sequentially, so adding at the end keeps all prior
		// symbol VAs (and with them every existing figure) bit-identical.
		{"irq_set_affinity", 100, func(c *cpu.CPU) error {
			k.SetISRAffinity(int(c.Regs[7]), int(c.Regs[6])) // RDI, RSI
			c.Regs[0] = 0
			return nil
		}},
	}
}

// registerCoreNatives installs the kernel API every module may import.
func (k *Kernel) registerCoreNatives() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, d := range k.coreNativeDefs() {
		k.defineNativeLocked(d.name, d.cost, d.fn)
	}
}

// rebindCoreNatives re-creates the core natives as closures over this
// (forked) kernel at the symbol addresses the template assigned. Caller
// holds k.mu; k.symbols must already carry the template's assignments.
func (k *Kernel) rebindCoreNatives() {
	for _, d := range k.coreNativeDefs() {
		va, ok := k.symbols[d.name]
		if !ok {
			panic(fmt.Sprintf("kernel: fork: core native %q missing from symbol table", d.name))
		}
		k.natives[va] = &cpu.Native{Name: d.name, Cost: d.cost, Fn: d.fn}
	}
}

// RebindNative replaces the implementation behind an already-defined
// native symbol, keeping its address and cost semantics. Forked machines
// use it to point natives whose closures capture per-machine state (the
// re-randomizer's stack-swap helpers) at the clone's state instead of
// the template's.
func (k *Kernel) RebindNative(name string, cost uint64, fn func(c *cpu.CPU) error) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	va, ok := k.symbols[name]
	if !ok {
		return fmt.Errorf("kernel: RebindNative: unknown symbol %q", name)
	}
	if _, isNative := k.natives[va]; !isNative {
		return fmt.Errorf("kernel: RebindNative: symbol %q is not a native", name)
	}
	k.natives[va] = &cpu.Native{Name: name, Cost: cost, Fn: fn}
	return nil
}
