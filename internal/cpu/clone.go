package cpu

import "adelie/internal/mm"

// CloneFor returns a copy of this vCPU for a forked machine: same
// architectural state (registers, flags, RIP), same cycle and retire
// counters, and a cloned TLB over the fork's address space so the
// clone's future hit/miss — and therefore cycle — sequence matches the
// template's. natives is the fork kernel's table; the caller points
// Kernel at the fork's kernel.
//
// The superblock cache starts empty: it is a host-side accelerator whose
// population is invisible to cycle accounting (the same documented
// equivalence that lets ADELIE_NOCHAIN=1 disable chaining without
// changing results).
//
// The clone is built directly rather than through New, so it allocates
// only the TLB it keeps.
func (c *CPU) CloneFor(as *mm.AddressSpace, natives map[uint64]*Native) *CPU {
	return &CPU{
		ID:              c.ID,
		Regs:            c.Regs,
		RIP:             c.RIP,
		flags:           c.flags,
		AS:              as,
		TLB:             c.TLB.CloneFor(as),
		natives:         natives,
		nativeLo:        c.nativeLo,
		nativeHi:        c.nativeHi,
		Cycles:          c.Cycles,
		Insts:           c.Insts,
		Blocks:          c.Blocks,
		ChainedBlocks:   c.ChainedBlocks,
		IndirectChained: c.IndirectChained,
		blocks:          make(map[mm.FrameID]*pageBlocks),
		lastBlockFrame:  mm.NoFrame,
		chainOn:         c.chainOn,
		indirectOn:      c.indirectOn,
		blockHits:       c.blockHits,
		blockMisses:     c.blockMisses,
		chainMisses:     c.chainMisses,
	}
}
