package kernel

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"adelie/internal/cpu"
	"adelie/internal/mm"
	"adelie/internal/smr"
)

// Fork returns a deep copy of this kernel sharing physical frames
// copy-on-write with the template. The template must be quiescent: no
// vCPU running, no SMR critical section live, no retired-but-unfreed
// address range (a pending retire closure captures the template's
// address space and could never run against the fork's). sim.Machine
// enforces this by freezing the template at Snapshot. The fork's vCPUs
// clone from the template's on first use, so the template's vCPUs must
// also stay unmodified for as long as the fork lives.
//
// Everything addressed by VA or FrameID carries over verbatim — the
// fork's address space maps the same frames at the same addresses, so
// symbol tables, module bookkeeping, heap metadata, pending work and
// registered ISRs are plain copies. Core natives are re-created as
// closures over the fork (rebindCoreNatives); natives registered by
// other owners (the re-randomizer's stack-swap helpers) are carried
// over and must be rebound by their owner via RebindNative.
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

	src := &countingSource{seed: k.randSrc.seed, n: k.randSrc.n}
	nk := &Kernel{
		Cfg:      k.Cfg,
		AS:       k.AS.Fork(k.AS.Phys().Fork()),
		Rand:     rand.New(src),
		randSrc:  src,
		SMR:      nsmr,
		symbols:  make(map[string]uint64, len(k.symbols)),
		natives:  make(map[uint64]*cpu.Native, len(k.natives)),
		textBase: k.textBase,
		textNext: k.textNext,

		heapBase:   k.heapBase,
		heapNext:   k.heapNext,
		heapFree:   make(map[uint64][]uint64, len(k.heapFree)),
		heapSizes:  make(map[uint64]uint64, len(k.heapSizes)),
		heapMapped: k.heapMapped,

		stackBase: k.stackBase,
		stackNext: k.stackNext,

		regions: append([]vaRegion(nil), k.regions...),

		modules:   make(map[string]*Module, len(k.modules)),
		workqueue: append([]workItem(nil), k.workqueue...),

		log: append([]string(nil), k.log...),

		moduleRangeLo: k.moduleRangeLo,
		moduleRangeHi: k.moduleRangeHi,
	}
	for name, va := range k.symbols {
		nk.symbols[name] = va
	}
	for class, list := range k.heapFree {
		nk.heapFree[class] = append([]uint64(nil), list...)
	}
	for va, class := range k.heapSizes {
		nk.heapSizes[va] = class
	}
	if k.isrs != nil {
		nk.isrs = make(map[int]isrEntry, len(k.isrs))
		for line, e := range k.isrs {
			nk.isrs[line] = e
		}
	}
	for va, n := range k.natives {
		nk.natives[va] = n
	}
	nk.rebindCoreNatives()
	for name, m := range k.modules {
		nk.modules[name] = m.cloneFor(nk)
	}
	// vCPUs clone lazily (Kernel.CPU): a run that touches one vCPU of a
	// 20-vCPU machine pays for one clone. The template hands over its
	// own vCPU where it exists and its template's where it does not, so
	// a fork of a fork still clones from frozen state.
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
