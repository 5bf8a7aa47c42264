// Package rerand implements Adelie's continuous re-randomization policy:
// the randomizer kernel thread that periodically moves every registered
// module (paper §4.2), the per-CPU stack substitution natives wrappers
// call (§3.4 "Stacks"), and the dmesg-style statistics the paper's
// artifact reports (Randomized count, SMR Retire/Free/Delta, Stack
// Alloc/Free/Delta).
//
// Mechanism (zero-copy remap, GOT reallocation, key rotation, delayed
// unmap) lives in internal/kernel; this package decides when to invoke it
// and owns the stack pool lifecycle.
package rerand

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adelie/internal/cpu"
	"adelie/internal/isa"
	"adelie/internal/kernel"
	"adelie/internal/plugin"
	"adelie/internal/stackpool"
)

// Cycle-cost model for the randomizer thread itself, used by the
// simulator to charge re-randomization work to a vCPU. Values are nominal
// but proportioned so that the §5.4 scalability result (≈0.4% of one CPU
// at a 20 ms period for a handful of modules) is reproducible.
const (
	CostBase     = 1500 // fixed per module move (bookkeeping, rng, retire)
	CostPerPage  = 400  // PTE install + shootdown amortization per page
	CostPerEntry = 15   // one GOT slot rewrite
	CostPerStack = 120  // stack list swap / release
)

// Randomizer is the re-randomizer "kthread".
type Randomizer struct {
	K    *kernel.Kernel
	Pool *stackpool.Pool

	mu      sync.Mutex
	modules []*kernel.Module
	// forked marks a fork's randomizer whose modules still name the
	// template's instances; resolve swaps in the fork kernel's clones.
	forked bool

	randomized atomic.Int64 // total module moves ("Randomized N times")
	cycles     atomic.Uint64
}

// New creates a randomizer, registers the stack-substitution natives
// (get_new_stack / return_old_stack) with the kernel, and returns it.
// It must be constructed before loading modules that use stack
// re-randomization, so their imports resolve.
func New(k *kernel.Kernel) *Randomizer {
	r := &Randomizer{
		K:    k,
		Pool: stackpool.New(k.NumCPUs(), k),
	}
	k.SetStackPool(r.Pool)
	k.DefineNative(plugin.SymGetNewStack, 40, getNewStack)
	k.DefineNative(plugin.SymReturnOldStack, 40, returnOldStack)
	return r
}

// Fork returns a randomizer for a forked kernel: the stack pool is
// cloned (the queued top-of-stack VAs carry over — forking preserves
// all mappings) and installed on the fork kernel, where the shared
// stack-substitution natives find it, and counters are carried over.
// The fork keeps the template's module list and resolves it to the fork
// kernel's module clones by name on first use, so a fork that never
// re-randomizes never clones a module.
func Fork(nk *kernel.Kernel, tmpl *Randomizer) *Randomizer {
	r := &Randomizer{
		K:      nk,
		Pool:   tmpl.Pool.Clone(nk),
		forked: true,
	}
	tmpl.mu.Lock()
	r.modules = tmpl.modules
	tmpl.mu.Unlock()
	r.randomized.Store(tmpl.randomized.Load())
	r.cycles.Store(tmpl.cycles.Load())
	nk.SetStackPool(r.Pool)
	return r
}

// resolve replaces a fork's inherited module list by the fork kernel's
// instances of the same modules. Caller holds r.mu.
func (r *Randomizer) resolve() error {
	if !r.forked {
		return nil
	}
	mods := make([]*kernel.Module, len(r.modules))
	for i, m := range r.modules {
		nm, ok := r.K.Module(m.Name)
		if !ok {
			return fmt.Errorf("rerand: module %s missing from forked kernel", m.Name)
		}
		mods[i] = nm
	}
	r.modules, r.forked = mods, false
	return nil
}

// getNewStack is the get_new_stack native (paper Fig. 3b): save the
// current stack position in %rbp, dequeue a stack from the calling
// machine's per-CPU list (allocating on demand) and continue on it. The
// native also migrates its own return address, which the calling
// convention left on the old stack.
func getNewStack(c *cpu.CPU) error {
	ret, err := c.Pop() // return address pushed by the wrapper's call
	if err != nil {
		return err
	}
	old := c.Regs[isa.RSP]
	top, err := kernel.Of(c).StackPool().Get(c.ID)
	if err != nil {
		return err
	}
	c.Regs[isa.RBP] = old // %rbp = %rsp (saved old stack)
	c.Regs[isa.RSP] = top
	return c.Push(ret)
}

// returnOldStack is the return_old_stack native: push the (now
// balanced) stack back on the per-CPU list and restore the saved
// position from %rbp.
func returnOldStack(c *cpu.CPU) error {
	ret, err := c.Pop()
	if err != nil {
		return err
	}
	kernel.Of(c).StackPool().Put(c.ID, c.Regs[isa.RSP]) // stack is at its top again
	c.Regs[isa.RSP] = c.Regs[isa.RBP]                   // restore old stack
	return c.Push(ret)
}

// Add registers a module for continuous re-randomization.
func (r *Randomizer) Add(m *kernel.Module) error {
	if !m.Rerandomizable() {
		return fmt.Errorf("rerand: module %s was not built with the plugin", m.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.resolve(); err != nil {
		return err
	}
	r.modules = append(r.modules, m)
	return nil
}

// Modules returns the registered modules. On a fork whose inherited
// list no longer resolves (a registered module was unloaded), it
// returns nil; Step reports the error.
func (r *Randomizer) Modules() []*kernel.Module {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.resolve() != nil {
		return nil
	}
	return append([]*kernel.Module(nil), r.modules...)
}

// StepReport describes the work of one randomization pass.
type StepReport struct {
	ModulesMoved  int
	PagesRemapped uint64
	GotEntries    uint64
	StacksRetired int
	Cycles        uint64 // modeled CPU cost of the pass
}

// Step performs one full pass: every registered module is moved, and the
// per-CPU stack lists are swapped with the old stacks retired through SMR
// (freed when pending calls drain).
func (r *Randomizer) Step() (StepReport, error) {
	r.mu.Lock()
	err := r.resolve()
	mods := append([]*kernel.Module(nil), r.modules...)
	r.mu.Unlock()

	var rep StepReport
	if err != nil {
		return rep, err
	}
	for _, m := range mods {
		pagesBefore, entriesBefore := m.PagesRemapped, m.GotEntriesMoved
		if _, err := m.Rerandomize(); err != nil {
			return rep, fmt.Errorf("rerand: %s: %w", m.Name, err)
		}
		r.randomized.Add(1)
		rep.ModulesMoved++
		rep.PagesRemapped += m.PagesRemapped - pagesBefore
		rep.GotEntries += m.GotEntriesMoved - entriesBefore
	}

	// Swap stack lists; release the old stacks once no pending call can
	// still be running on one.
	old := r.Pool.SwapAll()
	rep.StacksRetired = len(old)
	if len(old) > 0 {
		pool := r.Pool
		r.K.SMR.Retire(func() { _ = pool.Release(old) })
	}

	rep.Cycles = uint64(rep.ModulesMoved)*CostBase +
		rep.PagesRemapped*CostPerPage +
		rep.GotEntries*CostPerEntry +
		uint64(rep.StacksRetired)*CostPerStack
	r.cycles.Add(rep.Cycles)
	return rep, nil
}

// Stats aggregates the counters the artifact's dmesg output reports.
type Stats struct {
	Randomized int64
	SMRRetired int64
	SMRFreed   int64
	StackAlloc int64
	StackFree  int64
	Cycles     uint64
}

// Stats returns the current counters.
func (r *Randomizer) Stats() Stats {
	smr := r.K.SMR.Stats()
	st := r.Pool.Stats()
	return Stats{
		Randomized: r.randomized.Load(),
		SMRRetired: smr.Retired,
		SMRFreed:   smr.Freed,
		StackAlloc: st.Allocs,
		StackFree:  st.Frees,
		Cycles:     r.cycles.Load(),
	}
}

// LogDmesg writes the artifact-style status block to the kernel log:
//
//	Randomized 53 times
//	SMR Retire: 106 / SMR Free: 106 / SMR Delta: 0
//	Stack Alloc: 530 / Stack Free: 530 / Stack Delta: 0
func (r *Randomizer) LogDmesg() {
	s := r.Stats()
	r.K.Printk("-----")
	r.K.Printk(fmt.Sprintf("Randomized %d times", s.Randomized))
	r.K.Printk(fmt.Sprintf("SMR Retire: %d", s.SMRRetired))
	r.K.Printk(fmt.Sprintf("SMR Free: %d", s.SMRFreed))
	r.K.Printk(fmt.Sprintf("SMR Delta: %d", s.SMRRetired-s.SMRFreed))
	r.K.Printk(fmt.Sprintf("Stack Alloc: %d", s.StackAlloc))
	r.K.Printk(fmt.Sprintf("Stack Free: %d", s.StackFree))
	r.K.Printk(fmt.Sprintf("Stack Delta: %d", s.StackAlloc-s.StackFree))
}
