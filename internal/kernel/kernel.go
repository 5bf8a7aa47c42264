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
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"adelie/internal/cpu"
	"adelie/internal/mm"
	"adelie/internal/smr"
	"adelie/internal/stackpool"
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

	// The maps and the region list are shared copy-on-write with the
	// kernel this one was forked from and with its own forks (see cow).
	mu       sync.Mutex
	symbols  cow[map[string]uint64]      // exported symbol table (kernel + modules)
	natives  cow[map[uint64]*cpu.Native] // dispatch table every vCPU reads
	textBase uint64                      // kernel image base (randomized)
	textNext uint64                      // next free native slot

	heapBase   uint64
	heapNext   uint64
	heapFree   cow[map[uint64][]uint64] // size class → free VAs
	heapSizes  cow[map[uint64]uint64]   // allocation VA → rounded size
	heapMapped uint64                   // end of mapped heap pages

	stackBase uint64
	stackNext uint64

	// regions tracks every allocated VA interval for collision-free
	// randomized placement.
	regions cow[[]vaRegion]

	// modules holds the loaded modules. A fork starts on its parent's
	// map, whose modules belong to the parent (Module.k); Module clones
	// one on first access (ownModule).
	modules cow[map[string]*Module]

	// cpus holds the vCPUs, each created on first access (see CPU): a
	// fork clones cpuTmpl[i], and where that is nil (always on a booted
	// kernel) a fresh vCPU starts on its boot stack, stackTops[i].
	cpus      []atomic.Pointer[cpu.CPU]
	cpuTmpl   []*cpu.CPU
	stackTops []uint64

	workqueue []workItem
	isrs      cow[map[int]isrEntry] // IRQ line → {handler VA, affinity vCPU} (see irq.go)

	// irqRouter mirrors ISR affinity into the bus's vector table. Machine
	// wiring, installed by sim and re-installed on fork — never copied.
	irqRouter func(line, vcpu int)

	// stacks is the per-CPU stack pool behind the stack-substitution
	// natives. Machine wiring like irqRouter: the re-randomizer installs
	// its pool at boot and on every fork (SetStackPool).
	stacks *stackpool.Pool

	log []string // printk buffer

	moduleRangeLo, moduleRangeHi uint64 // placement window for modules

	// randSrc is the counting source under Rand. Fork copies its seed
	// and draw count, so the clone's random stream continues bit-exactly
	// where the template's stopped; the clone seeds a generator only
	// when it first draws.
	randSrc countingSource
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
	k := &Kernel{
		Cfg:       cfg,
		AS:        mm.NewAddressSpace(mm.NewPhysMem()),
		randSrc:   countingSource{seed: cfg.Seed},
		symbols:   cow[map[string]uint64]{v: map[string]uint64{}},
		natives:   cow[map[uint64]*cpu.Native]{v: map[uint64]*cpu.Native{}},
		heapFree:  cow[map[uint64][]uint64]{v: map[uint64][]uint64{}},
		heapSizes: cow[map[uint64]uint64]{v: map[uint64]uint64{}},
		modules:   cow[map[string]*Module]{v: map[string]*Module{}},
		isrs:      cow[map[int]isrEntry]{v: map[int]isrEntry{}},
	}
	k.Rand = rand.New(&k.randSrc)
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

	// Every vCPU's stack is placed at boot; the vCPU itself is created
	// on first use (CPU).
	k.cpus = make([]atomic.Pointer[cpu.CPU], cfg.NumCPUs)
	k.cpuTmpl = make([]*cpu.CPU, cfg.NumCPUs)
	k.stackTops = make([]uint64, cfg.NumCPUs)
	for i := range k.stackTops {
		top, err := k.AllocStack()
		if err != nil {
			return nil, err
		}
		k.stackTops[i] = top
	}
	return k, nil
}

// claim records a VA interval as occupied.
func (k *Kernel) claim(base, size uint64) {
	k.regions.v = append(k.regions.own(slices.Clone), vaRegion{lo: base, hi: base + size})
}

// release removes a claimed interval (module unload / re-randomization).
func (k *Kernel) release(base, size uint64) {
	for i, r := range k.regions.v {
		if r.lo == base && r.hi == base+size {
			k.regions.v = slices.Delete(k.regions.own(slices.Clone), i, i+1)
			return
		}
	}
}

func (k *Kernel) overlaps(lo, hi uint64) bool {
	for _, r := range k.regions.v {
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
	if _, dup := k.symbols.v[name]; dup {
		panic(fmt.Sprintf("kernel: duplicate symbol %q", name))
	}
	va := k.textNext
	if va+nativeSlot > k.textBase+kernelTextPages*mm.PageSize {
		panic("kernel: native text region exhausted")
	}
	k.textNext += nativeSlot
	k.ownNatives()[va] = &cpu.Native{Name: name, Cost: cost, Fn: fn}
	k.symbols.own(maps.Clone)[name] = va
	return va
}

// ownNatives returns the native table for writing. If the table is
// still shared with a fork relative it is copied first, and every vCPU
// that exists is pointed at the copy. Caller holds k.mu.
func (k *Kernel) ownNatives() map[uint64]*cpu.Native {
	if k.natives.shared {
		m := k.natives.own(maps.Clone)
		for i := range k.cpus {
			if c := k.cpus[i].Load(); c != nil {
				c.SetNatives(m)
			}
		}
	}
	return k.natives.v
}

// Symbol resolves an exported symbol.
func (k *Kernel) Symbol(name string) (uint64, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.symbols.v[name]
	return v, ok
}

// ExportSymbol publishes a symbol (module exports during load).
func (k *Kernel) ExportSymbol(name string, va uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.symbols.v[name]; dup {
		return fmt.Errorf("kernel: duplicate exported symbol %q", name)
	}
	k.symbols.own(maps.Clone)[name] = va
	return nil
}

// CPU returns vCPU i, creating it on first access — on a fork by
// cloning the frozen template's. The fast path is a load and a nil
// check, written to fit the compiler's inlining budget. The slot stays
// atomic and the first use locked although one goroutine drives a
// machine: pool forks load a template's slots (Kernel.Fork) from several
// goroutines at once, and nothing stops a caller from touching a frozen
// template's vCPU meanwhile. On x86-64 the atomic load is a plain load.
func (k *Kernel) CPU(i int) (c *cpu.CPU) {
	if c = k.cpus[i].Load(); c == nil {
		return k.materializeCPU(i)
	}
	return
}

// materializeCPU creates vCPU i under k.mu, so racing first users get
// one vCPU and it sees the current native table. A vCPU nothing has
// run is a pure function of its ID, the address space and its boot
// stack, so creating it late is indistinguishable from creating it at
// boot.
func (k *Kernel) materializeCPU(i int) *cpu.CPU {
	k.mu.Lock()
	defer k.mu.Unlock()
	if c := k.cpus[i].Load(); c != nil {
		return c
	}
	var c *cpu.CPU
	if t := k.cpuTmpl[i]; t != nil {
		c = t.CloneFor(k.AS, k.natives.v)
	} else {
		c = cpu.New(i, k.AS)
		c.SetNatives(k.natives.v)
		// All natives — including ones defined after boot — live inside
		// the kernel text region, so module RIPs skip the dispatch probe.
		c.SetNativeRange(k.textBase, k.textBase+kernelTextPages*mm.PageSize)
		c.Regs[4] = k.stackTops[i] // RSP
	}
	c.Kernel = k
	k.cpus[i].Store(c)
	return c
}

// LoadedCPU returns vCPU i if it already exists, or nil if nothing has
// touched it yet. Callers that only reset per-vCPU state a fresh vCPU
// never has use it to avoid creating one.
func (k *Kernel) LoadedCPU(i int) *cpu.CPU { return k.cpus[i].Load() }

// NumCPUs returns the configured CPU count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Module returns a loaded module by name. On a fork, the module is
// cloned from the parent's on first access.
func (k *Kernel) Module(name string) (*Module, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	m, ok := k.modules.v[name]
	if ok {
		m = k.ownModule(m)
	}
	return m, ok
}

// Modules returns all loaded modules sorted by name, cloning on a fork
// every module not cloned yet.
func (k *Kernel) Modules() []*Module {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Module, 0, len(k.modules.v))
	for _, m := range k.modules.v {
		out = append(out, k.ownModule(m))
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
	if len(k.heapFree.v[class]) > 0 {
		free := k.heapFree.own(cloneFreeLists)
		list := free[class]
		va := list[len(list)-1]
		free[class] = list[:len(list)-1]
		k.heapSizes.own(maps.Clone)[va] = class
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
	k.heapSizes.own(maps.Clone)[va] = class
	return va, nil
}

// Kfree releases a kmalloc allocation back to its size class.
func (k *Kernel) Kfree(va uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	class, ok := k.heapSizes.v[va]
	if !ok {
		return fmt.Errorf("kernel: kfree of unknown address %#x", va)
	}
	delete(k.heapSizes.own(maps.Clone), va)
	free := k.heapFree.own(cloneFreeLists)
	free[class] = append(free[class], va)
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

// Of returns the kernel a vCPU belongs to. Natives use it to reach
// their machine: one native table serves a fork template and all its
// forks, so a native must not capture a kernel.
func Of(c *cpu.CPU) *Kernel { return c.Kernel.(*Kernel) }

// SetStackPool installs the per-CPU stack pool the stack-substitution
// natives draw from. Like the IRQ router it is machine wiring, not
// kernel state: Fork does not carry it over, and the forked
// re-randomizer installs its own pool before the fork runs.
func (k *Kernel) SetStackPool(p *stackpool.Pool) { k.stacks = p }

// StackPool returns the pool installed by SetStackPool (nil if none).
func (k *Kernel) StackPool() *stackpool.Pool { return k.stacks }

// coreNatives is the kernel API every module may import. Each native
// reaches its kernel through the calling vCPU (Of). Costs are nominal
// cycle charges standing in for the real routines' work.
var coreNatives = []cpu.Native{
	{Name: "printk", Cost: 150, Fn: func(c *cpu.CPU) error {
		Of(c).Printk(readCString(c.AS, c.Regs[7], 256)) // RDI
		c.Regs[0] = 0
		return nil
	}},
	{Name: "kmalloc", Cost: 120, Fn: func(c *cpu.CPU) error {
		va, err := Of(c).Kmalloc(c.Regs[7])
		if err != nil {
			return err
		}
		c.Regs[0] = va
		return nil
	}},
	{Name: "kfree", Cost: 90, Fn: func(c *cpu.CPU) error {
		return Of(c).Kfree(c.Regs[7])
	}},
	{Name: "memset64", Cost: 40, Fn: func(c *cpu.CPU) error {
		// memset64(dst, val, nwords)
		dst, val, n := c.Regs[7], c.Regs[6], c.Regs[2]
		for i := uint64(0); i < n; i++ {
			if err := c.AS.Write64(dst+8*i, val); err != nil {
				return err
			}
		}
		c.Cycles += n / 4
		return nil
	}},
	{Name: "memcpy64", Cost: 40, Fn: func(c *cpu.CPU) error {
		// memcpy64(dst, src, nwords)
		dst, src, n := c.Regs[7], c.Regs[6], c.Regs[2]
		for i := uint64(0); i < n; i++ {
			v, err := c.AS.Read64(src + 8*i)
			if err != nil {
				return err
			}
			if err := c.AS.Write64(dst+8*i, v); err != nil {
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
	{Name: "cond_resched", Cost: 10, Fn: func(c *cpu.CPU) error {
		return nil
	}},
	// smp_processor_id returns the executing vCPU's index. Drivers use it
	// to address per-CPU state (counters, per-CPU device queue slots) so
	// their data paths are SMP-correct when the engine runs operations on
	// several vCPUs — the same this_cpu_* discipline real Linux drivers
	// follow.
	{Name: "smp_processor_id", Cost: 5, Fn: func(c *cpu.CPU) error {
		c.Regs[0] = uint64(c.ID) // RAX
		return nil
	}},
	// queue_work(fn, arg) defers fn(arg) to workqueue context (§3.4).
	{Name: "queue_work", Cost: 80, Fn: func(c *cpu.CPU) error {
		Of(c).QueueWork(c.Regs[7], c.Regs[6]) // RDI, RSI
		c.Regs[0] = 0
		return nil
	}},
	// request_irq(line, handler) registers an interrupt service routine,
	// affine to vCPU 0 (the legacy target) until irq_set_affinity moves
	// it. Like queue_work, the handler address may point into the
	// module's movable part; the re-randomizer slides registered vectors
	// on moves.
	{Name: "request_irq", Cost: 150, Fn: func(c *cpu.CPU) error {
		Of(c).RegisterISR(int(c.Regs[7]), c.Regs[6], 0) // RDI, RSI
		c.Regs[0] = 0
		return nil
	}},
	// mr_start / mr_finish bracket externally-initiated module calls
	// (paper §3.4). The slot is the executing CPU.
	{Name: "mr_start", Cost: 30, Fn: func(c *cpu.CPU) error {
		Of(c).SMR.Enter(c.ID)
		return nil
	}},
	{Name: "mr_finish", Cost: 30, Fn: func(c *cpu.CPU) error {
		Of(c).SMR.Leave(c.ID)
		return nil
	}},
	// irq_set_affinity(line, cpu) points an interrupt vector at a target
	// vCPU — the guest half of MSI-X routing. Multi-queue drivers call
	// it per queue after request_irq so each queue's ISR runs on its own
	// lane. Appended after every pre-existing native: natives allocate
	// text addresses sequentially, so adding at the end keeps all prior
	// symbol VAs (and with them every existing figure) bit-identical.
	{Name: "irq_set_affinity", Cost: 100, Fn: func(c *cpu.CPU) error {
		Of(c).SetISRAffinity(int(c.Regs[7]), int(c.Regs[6])) // RDI, RSI
		c.Regs[0] = 0
		return nil
	}},
}

// registerCoreNatives installs the kernel API every module may import.
func (k *Kernel) registerCoreNatives() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, n := range coreNatives {
		k.defineNativeLocked(n.Name, n.Cost, n.Fn)
	}
}
