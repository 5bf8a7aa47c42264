package kernel

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"

	"adelie/internal/cpu"
	"adelie/internal/mm"
	"adelie/internal/smr"
)

// Fork returns a copy of this kernel sharing physical frames
// copy-on-write with the template. The template must be quiescent: no
// vCPU running, no SMR critical section live, no retired-but-unfreed
// address range (a pending retire closure captures the template's
// address space and could never run against the fork's). sim.Machine
// enforces this by freezing the template at Snapshot. The fork clones
// the template's vCPUs and modules on first use, so those must also
// stay unmodified for as long as the fork lives.
//
// Everything addressed by VA or FrameID carries over verbatim — the
// fork's address space maps the same frames at the same addresses — so
// the symbol table, native table, heap metadata, placement regions and
// registered ISRs are shared with the template and copied on the
// fork's first write (cow). Natives reach their kernel through the
// calling vCPU (Of), so the shared native table serves the fork as is.
// Machine wiring is not carried over: the owner re-installs the IRQ
// router and the stack pool.
func (k *Kernel) Fork() (*Kernel, error) {
	forker, ok := k.SMR.(smr.Forker)
	if !ok {
		return nil, fmt.Errorf("kernel: fork: reclaimer %q does not support forking", k.SMR.Name())
	}
	nsmr, err := forker.ForkQuiescent()
	if err != nil {
		return nil, fmt.Errorf("kernel: fork: %w", err)
	}

	k.mu.Lock()
	defer k.mu.Unlock()

	nk := &Kernel{
		Cfg:      k.Cfg,
		AS:       k.AS.Fork(k.AS.Phys().Fork()),
		randSrc:  countingSource{seed: k.randSrc.seed, n: k.randSrc.n},
		SMR:      nsmr,
		symbols:  k.symbols.share(),
		natives:  k.natives.share(),
		textBase: k.textBase,
		textNext: k.textNext,

		heapBase:   k.heapBase,
		heapNext:   k.heapNext,
		heapFree:   k.heapFree.share(),
		heapSizes:  k.heapSizes.share(),
		heapMapped: k.heapMapped,

		stackBase: k.stackBase,
		stackNext: k.stackNext,

		regions: k.regions.share(),

		modules:   k.modules.share(),
		workqueue: append([]workItem(nil), k.workqueue...),
		isrs:      k.isrs.share(),

		// Printk only appends: a full-capacity slice reallocates on the
		// fork's first line instead of writing the shared array.
		log: slices.Clip(k.log),

		moduleRangeLo: k.moduleRangeLo,
		moduleRangeHi: k.moduleRangeHi,
	}
	nk.Rand = rand.New(&nk.randSrc)
	// vCPUs clone lazily (Kernel.CPU): a run that touches one vCPU of a
	// 20-vCPU machine pays for one clone. The template hands over its
	// own vCPU where it exists and its template's where it does not, so
	// a fork of a fork still clones from frozen state; where neither
	// exists the fork creates the vCPU fresh, as the template would.
	nk.stackTops = k.stackTops
	nk.cpus = make([]atomic.Pointer[cpu.CPU], len(k.cpus))
	nk.cpuTmpl = make([]*cpu.CPU, len(k.cpus))
	for i := range k.cpus {
		if c := k.cpus[i].Load(); c != nil {
			nk.cpuTmpl[i] = c
		} else {
			nk.cpuTmpl[i] = k.cpuTmpl[i]
		}
	}
	return nk, nil
}

// cow holds a value a kernel shares with the kernel it was forked from
// and with its own forks until one of them writes it. Readers use v; a
// writer calls own, which first replaces a shared v by a private copy.
// Fork marks the value shared on both sides, so neither writes the
// other's copy. Accessed under the kernel's mu.
type cow[T any] struct {
	v      T
	shared bool
}

// share marks the value shared and returns the handle a fork starts on.
func (c *cow[T]) share() cow[T] {
	c.shared = true
	return *c
}

// own returns v for writing, copying it with clone first if it is
// shared.
func (c *cow[T]) own(clone func(T) T) T {
	if c.shared {
		c.v, c.shared = clone(c.v), false
	}
	return c.v
}

// cloneFreeLists deep-copies the heap's free lists: Kmalloc truncates a
// list and Kfree appends to it, either of which would otherwise write
// an array the lists' other sharers still read.
func cloneFreeLists(m map[uint64][]uint64) map[uint64][]uint64 {
	out := make(map[uint64][]uint64, len(m))
	for class, list := range m {
		out[class] = slices.Clone(list)
	}
	return out
}

// ownModule returns this kernel's instance of m: m itself if it belongs
// to this kernel, else (on a fork, whose module map starts as its
// parent's) a clone, recorded in place of m. Caller holds k.mu.
func (k *Kernel) ownModule(m *Module) *Module {
	if m.k == k {
		return m
	}
	nm := m.cloneFor(k)
	k.modules.own(maps.Clone)[m.Name] = nm
	return nm
}

// cloneFor deep-copies a module for a forked kernel. The object file is
// shared (immutable after build); every piece of mutable bookkeeping is
// copied so re-randomization diverges independently per machine.
func (m *Module) cloneFor(nk *Kernel) *Module {
	nm := &Module{
		Name:            m.Name,
		Obj:             m.Obj,
		k:               nk,
		Movable:         m.Movable.clone(),
		Immovable:       m.Immovable.clone(),
		exports:         make(map[string]uint64, len(m.exports)),
		localPtrOffsets: append([]uint64(nil), m.localPtrOffsets...),
		keySlot:         m.keySlot,
		curKey:          m.curKey,

		Rerandomizations: m.Rerandomizations,
		GotLoadsPatched:  m.GotLoadsPatched,
		CallsPatched:     m.CallsPatched,
		PltStubsBuilt:    m.PltStubsBuilt,
		PltStubsElided:   m.PltStubsElided,
		PagesRemapped:    m.PagesRemapped,
		GotEntriesMoved:  m.GotEntriesMoved,
	}
	for name, va := range m.exports {
		nm.exports[name] = va
	}
	return nm
}

// clone deep-copies one module part.
func (p Part) clone() Part {
	np := p
	np.Frames = append([]mm.FrameID(nil), p.Frames...)
	np.chunks = append([]chunk(nil), p.chunks...)
	if p.secOff != nil {
		np.secOff = make(map[int]uint64, len(p.secOff))
		for sec, off := range p.secOff {
			np.secOff[sec] = off
		}
	}
	if p.stubs != nil {
		np.stubs = make(map[string]uint64, len(p.stubs))
		for sym, off := range p.stubs {
			np.stubs[sym] = off
		}
	}
	np.GotFixed = p.GotFixed.clone()
	np.GotLocal = p.GotLocal.clone()
	return np
}

// clone deep-copies a GOT (nil-safe).
func (g *GOT) clone() *GOT {
	if g == nil {
		return nil
	}
	ng := &GOT{
		Name:   g.Name,
		Base:   g.Base,
		Slots:  append([]GOTSlot(nil), g.Slots...),
		Frames: append([]mm.FrameID(nil), g.Frames...),
	}
	if g.index != nil {
		ng.index = make(map[string]int, len(g.index))
		for sym, i := range g.index {
			ng.index[sym] = i
		}
	}
	return ng
}
