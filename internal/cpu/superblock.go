package cpu

// Basic-block superblock execution: the interpreter's hot path.
//
// fetchBlock decodes forward from the entry PC to the next control-flow
// instruction (or the page boundary, a native kernel entry point, or an
// undecodable byte) and caches the whole run keyed by (frame, entry
// offset), validated by the frame's content version, so a write to a
// code page through any mapping (including a W^X-violating writable
// alias) drops stale blocks before they can execute, and a zero-copy
// re-randomization remap (same frames, new addresses) keeps blocks warm.
// Each instruction is stored in executor form (inst: a dense kind plus
// its operands, see exec.go).
//
// runChain then hands cached blocks to execBlock, the one executor: one
// TLB lookup and one exec-permission check per block instead of per
// instruction, no per-instruction fetch, no native-table probe between
// straight-line instructions (control can only land on a kernel entry
// point via a branch, which terminates a block). Cycle and instruction
// accounting is accumulated per block and lands in the same CPU
// counters the engine's closed-queueing model replays.
//
// Trace linking. A block whose final instruction is a *direct* branch
// (CALL/JMP/Jcc) — or that was cut at a page boundary and falls through —
// records the successor superblock on its exit the first time that exit
// resolves: same-page targets and cross-page targets alike, the latter
// via the second frame's mm.Entry obtained on the dispatch path. On
// later executions the exit follows the link block→block without
// returning to the dispatch loop, guarded by
//
//   - the successor frame's content version (mm.FrameRef): a write to
//     the successor's bytes through any mapping — including an alias of
//     the *successor* frame the predecessor never touched — kills the
//     link before stale code runs;
//   - the address-space generation: any unmap/protect since the link was
//     recorded sends the exit back through the dispatch path, so a
//     branch to a re-randomized-away region faults exactly as
//     per-block dispatch would (stale module addresses must fault);
//   - the vCPU's native-table generation (blockGen): links hold direct
//     superblock pointers that bypass the blocks map, so the map clear
//     in invalidateBlocks alone cannot retire them — the generation
//     does, covering natives registered after the link was recorded.
//
// Indirect exits (RET, CALLR/JMPR, GOT-indirect CALLM/JMPM) — every
// retpoline thunk ends in RET — resolve a dynamic target, so they cannot
// link unconditionally. Instead each such block carries a *monomorphic
// indirect target cache*: one chainLink recording the last successor the
// exit resolved to. When the dynamic target VA matches the cached one,
// the exit follows the link under exactly the same validation triple as
// a direct link (successor frame content version, address-space
// generation, native-table generation); on a target mismatch, an empty
// cache, or failed validation it falls back to the dispatch-path resolve
// and re-records the newest target. A stale successor cached before a
// re-randomization epoch can therefore never execute: the remap bumps
// the address-space generation, the link fails validation, and the
// dispatch path re-resolves (or faults) exactly as unchained execution
// would. ADELIE_NOINDIRECT=1 (or SetIndirect(false)) turns only this
// cache off — direct links stay on — giving CI a three-mode equivalence
// matrix. Chains are bounded (maxChainBlocks) regardless of link kind,
// so the Run loop's instruction budget keeps firing and a stepBlock call
// can never outrun the engine's barrier-synchronized clock boundary: IRQ
// delivery and re-randomization stay where per-block dispatch put them.
//
// Native call-site links. An exit (direct or indirect — the hot case is
// a GOT-indirect CALLM into the core kernel) that resolves to a native
// entry point records a native-kind link: following it runs the native
// *inline* inside the chain and then enters the monomorphic cache of the
// block at the native's return address, so a module→kernel→module round
// trip costs zero dispatch-loop returns. The native link is validated by
// the native-table epoch (blockGen — every table mutation bumps it); the
// return-target block by the full triple above, re-read *after* the
// native runs, so a native that remaps, re-randomizes or rewrites code
// sends the return through the dispatch path exactly as unchained
// execution would. Natives charge the same cost/sample/stack-pop
// sequence wherever they are invoked, so inlining them is
// accounting-invisible.
//
// Dispatch entry cache. The residual dispatch entries — the first block
// of each Call (syscall entries, ISR handlers, kernel→module callbacks)
// and any exit the chain could not resolve — go through a small
// per-vCPU direct-mapped cache of dispatch resolutions keyed by entry
// VA, validated like any block link. A hit re-enters the cached trace
// without the dispatch tables and counts toward ChainedBlocks; the
// chain-rate metric is therefore the fraction of all block entries that
// skipped dispatch resolution, whatever boundary they crossed.
//
// Loop megablocks. Recording a direct link may close a cycle of at most
// maxMegaParts valid direct links on one page, each block ending in a
// JMP/Jcc (a self-loop, or ext4_get_block's two-block extent scan);
// formMega copies the cycle's records into one list on the link's
// target, each final branch a kGuard. runMega enters it under the
// link's triple (blockGen is implied: only a current block is reached)
// and execBlock runs the cycle in one pass: a guard goes on to the next
// block while control stays on the recorded path, the chain bound
// allows another block and — after a store or an MMIO access — the
// frame's content version is unchanged; otherwise it leaves at the real
// target, whose link runChain follows. So a store through a W^X alias
// into the loop is seen at the next block entry, as a link sees it.
// runMega charges the blocks a pass went through as followed links, so
// every counter and fault matches per-block chaining; a sampler keeps
// megablocks off, so samples do too. ADELIE_NOCHAIN=1 turns them off.
//
// Accounting equivalence. A followed link — direct or indirect — skips
// the successor's TLB lookup. For working sets within TLB capacity that
// lookup was a hit by construction (the translation entered the TLB when
// the link was recorded and nothing evicted it), so charged cycles — and
// therefore every figure — are bit-identical to unchained execution;
// CI's three-mode cross-mode gate (full / ADELIE_NOINDIRECT=1 /
// ADELIE_NOCHAIN=1) enforces this pairwise. Under capacity pressure the
// skipped lookup can elide a refill the unchained path would charge, the
// same documented exception block execution already has against
// single-stepping — run-to-run determinism always holds.
//
// Resident memory probes. runChain arms c.memFast for every block, and
// execBlock serves each load and store through the TLB's resident word
// probes (mm.TLB.LoadPage/StorePage) while it is armed: between block
// boundaries no native, actor or IRQ can run, so the address-space
// generation cannot change mid-chain and the per-access generation
// re-check is provably redundant. A declined probe falls back to
// load64/store64/Push/Pop with identical accounting. Any access that
// turns out to be MMIO disarms the probes for the rest of the block
// (device reads are charged and routed on the slow path), and
// page-straddling accesses take the slow path as before — every charged
// cycle, TLB hit and miss is bit-identical in all three modes by
// construction. Step runs the same executor on one instruction with the
// probes disarmed.
//
// Memory-model note: like hardware that requires an instruction-sync
// barrier after self-modifying stores, a store issued from inside a
// block to the block's own not-yet-executed bytes takes effect at the
// next block fetch, not within the current block. Cross-block (and
// cross-op) modification is always observed, because every block entry
// re-validates the frame content version — a followed link re-validates
// the successor frame the same way.

import (
	"sync/atomic"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// chainingEnabled is the package-wide default latched by New into each
// vCPU. Trace linking is on unless ADELIE_NOCHAIN is enabled in the
// environment (the CI cross-mode equivalence gate; see envFlag for the
// "set, non-empty, not 0" semantics) or SetChaining(false) was called
// (the test hook).
var chainingEnabled atomic.Bool

// indirectEnabled gates the monomorphic indirect-branch target cache the
// same way: off when ADELIE_NOINDIRECT is enabled or SetIndirect(false)
// was called. With chaining on and indirect off, only direct links chain
// — the middle column of CI's three-mode equivalence matrix.
var indirectEnabled atomic.Bool

func init() {
	chainingEnabled.Store(!envFlag("ADELIE_NOCHAIN"))
	indirectEnabled.Store(!envFlag("ADELIE_NOINDIRECT"))
}

// SetChaining sets the package-wide trace-linking default for
// subsequently created CPUs and reports the previous value. Existing
// vCPUs keep the mode they were created with, so a machine never runs
// with mixed lanes.
func SetChaining(on bool) (was bool) {
	return chainingEnabled.Swap(on)
}

// SetIndirect sets the package-wide indirect-target-cache default for
// subsequently created CPUs and reports the previous value. Like
// SetChaining, existing vCPUs keep the mode they were created with.
func SetIndirect(on bool) (was bool) {
	return indirectEnabled.Swap(on)
}

// chainLink records one resolved successor of a superblock exit (or of
// the dispatch entry cache). It comes in two kinds:
//
//   - block link (sb != nil): the successor is an interpreted block,
//     validated by the triple {sb.gen == blockGen, gen == AS generation,
//     ref.Version() == ver} before being entered;
//   - native call-site link (nat != nil): the successor is a native
//     kernel function, validated by gen == blockGen alone (the
//     native-table epoch; natives are dispatched before translation, so
//     frame versions and the address-space generation do not apply).
//     Following it runs the native inline and then chains into ret, the
//     monomorphic cache of the block at the native's return address —
//     itself a block link validated by the full triple.
type chainLink struct {
	va  uint64      // branch-target VA this link covers
	ver uint64      // successor frame content version when recorded
	gen uint64      // AS generation (block) / native-table epoch (native)
	ref mm.FrameRef // successor frame version handle
	sb  *superblock // successor block (block links)
	nat *Native     // native entry point (native call-site links)
	ret *chainLink  // native links: block at the native's return address
}

// empty reports whether the link slot is unused.
func (l *chainLink) empty() bool { return l.sb == nil && l.nat == nil }

// entryCacheSlots sizes the per-vCPU dispatch entry cache (direct-mapped,
// power of two).
const entryCacheSlots = 16

// entrySlot maps an entry VA to its dispatch-entry-cache slot. Function
// entry points are commonly 16-aligned, so fold higher bits in rather
// than using the low bits alone.
func entrySlot(va uint64) uint64 { return (va ^ va>>4 ^ va>>12) & (entryCacheSlots - 1) }

// superblock is one decoded basic block. Only the final instruction can
// redirect control (branch/HLT) — or the block was cut at a page
// boundary, a native entry point, or an undecodable byte, in which case
// execution falls through to the next block fetch.
type superblock struct {
	insts []inst

	// gen is the vCPU's blockGen when the block was built; chain links
	// refuse to enter a block from an older native-table epoch.
	gen uint64

	// linkable marks exits eligible for direct trace linking: a direct
	// branch (CALL/JMP/Jcc) or a fall-through cut. HLT never links.
	linkable bool

	// indirect marks exits eligible for the monomorphic indirect target
	// cache: RET or a register/GOT-indirect branch. The dynamic target
	// must match ilink.va for the link to be followed.
	indirect bool

	// links caches up to two resolved successors of a direct exit — a
	// conditional exit has exactly two targets (taken and fall-through).
	links [2]chainLink

	// ilink is the monomorphic indirect target cache: the last successor
	// a RET/indirect exit resolved to. One slot, newest target wins.
	ilink chainLink

	// mega is the loop megablock headed by this block, if one formed.
	mega *megablock
}

// maxMegaParts bounds the blocks one loop megablock fuses.
const maxMegaParts = 4

// megablock is a cycle of direct-linked blocks on one page fused into one
// record list: each constituent's records, with its final JMP/Jcc turned
// into a kGuard record that keeps the branch's disp and len and holds
// the branch's condTaken mask in r2, the constituent's index in parts in
// r1 and the VA the recorded path goes on at in imm. It is valid for
// entry at va while the address-space generation is gen and the frame's
// content version is ver. The per-entry fields are execBlock's state.
type megablock struct {
	insts    []inst
	parts    []*superblock
	va       uint64
	gen, ver uint64
	ref      mm.FrameRef
	stores   bool // a constituent stores: guards re-check the frame version
	left     int  // per entry: internal boundaries the chain bound allows
	base     int  // per entry: index of the running constituent's first record
	laps     int  // per entry: passes over the whole cycle
	part     int  // per entry: the constituent a guard left from
}

// blockChunkBytes is the granularity at which superblock pointer storage
// is allocated within a page. Code rarely fills whole pages (module
// functions are tens to hundreds of bytes) and entry points cluster in
// the code actually executed, so chunking keeps the cache's footprint
// proportional to that code while the hit path stays a bounds-free
// double index instead of a map probe.
const blockChunkBytes = 512

// blockChunk holds the superblocks entered within one chunk's offsets.
type blockChunk struct {
	blocks [blockChunkBytes]*superblock
}

// pageBlocks caches the superblocks of one physical frame, indexed by
// the byte offset of their entry point within the page; chunks
// materialize on first use.
type pageBlocks struct {
	ver    uint64 // frame content version the blocks belong to
	chunks [mm.PageSize / blockChunkBytes]*blockChunk
}

func (p *pageBlocks) get(off int) *superblock {
	ch := p.chunks[off/blockChunkBytes]
	if ch == nil {
		return nil
	}
	return ch.blocks[off%blockChunkBytes]
}

func (p *pageBlocks) set(off int, sb *superblock) {
	ci := off / blockChunkBytes
	ch := p.chunks[ci]
	if ch == nil {
		ch = &blockChunk{}
		p.chunks[ci] = ch
	}
	ch.blocks[off%blockChunkBytes] = sb
}

// maxBlockPages bounds the superblock cache footprint per vCPU. Module
// working sets are a handful of text pages; when the bound is hit the
// whole cache is dropped (simple and deterministic).
const maxBlockPages = 128

// maxChainBlocks bounds how many linked blocks one stepBlock call may
// retire before returning to the dispatch loop, keeping the Run loop's
// instruction-budget check live on runaway linked loops.
const maxChainBlocks = 64

// noBlock negatively caches entry PCs that cannot start a block (the
// entry instruction straddles the page or does not decode), so repeated
// execution there skips straight to the single-step fallback instead of
// re-attempting the build. Whether an entry can start a block depends
// only on this frame's bytes, so the usual version check validates it.
var noBlock = &superblock{}

// invalidateBlocks drops every cached superblock (native-table changes
// move block boundaries without touching frame contents). Bumping
// blockGen retires chain links too: they hold direct superblock
// pointers the map clear cannot reach.
func (c *CPU) invalidateBlocks() {
	clear(c.blocks)
	c.lastBlockFrame, c.lastPB = mm.NoFrame, nil
	c.blockGen++
}

// stepBlock executes one whole basic block — and, via trace linking, any
// hot straight-line successors — falling back to a single Step when
// block execution cannot be used (entry instruction straddles the page
// boundary or fails to decode). Same contract as Step: (halted, error).
//
// With chaining on, the dispatch entry cache is probed first: a
// validated hit re-enters the cached block's trace without the
// native-range check or fetchBlock resolution (the native-table epoch in
// the link guarantees the VA was not, and still is not, a native entry
// point). A hit counts toward ChainedBlocks — the entry skipped dispatch
// resolution exactly like a followed trace link.
func (c *CPU) stepBlock() (bool, error) {
	rip := c.RIP
	if rip == HostReturn {
		return true, nil
	}
	if c.chainOn {
		if l := &c.entry[entrySlot(rip)]; l.sb != nil && l.va == rip &&
			l.sb.gen == c.blockGen && l.gen == c.AS.Generation() && l.ref.Version() == l.ver {
			c.ChainedBlocks++
			return c.runChain(l.sb)
		}
	}
	if rip >= c.nativeLo && rip < c.nativeHi {
		if n, ok := c.natives[rip]; ok {
			return c.runNative(n)
		}
	}
	gen := c.AS.Generation()
	sb, e, err := c.fetchBlock()
	if err != nil {
		return false, c.fault("fetch", err)
	}
	if sb == nil {
		return c.Step()
	}
	if c.chainOn {
		c.entry[entrySlot(rip)] = chainLink{va: rip, ver: e.Version(), gen: gen, ref: e.Ref(), sb: sb}
	}
	return c.runChain(sb)
}

// runChain executes sb and then follows chain links block→block —
// running native call-site links inline — until an exit dispatches
// (uncached or mismatched indirect target, host return, native→native
// transfer, invalidated link) or the chain bound is reached. Every block
// runs through execBlock with the resident memory probes armed, and is
// charged once after it retires: its instructions, one cycle each, and
// one Blocks count. A block heading a loop megablock goes through
// runMega.
func (c *CPU) runChain(sb *superblock) (bool, error) {
	// The address-space generation can only change inside a native
	// (chainNative refreshes it); hoisting the atomic read out of the
	// per-transition link validation is therefore exact.
	asGen := c.AS.Generation()
	for depth := 0; ; depth++ {
		// Arm the resident probes: no native, actor or IRQ runs between
		// here and the end of the block, so the address-space generation
		// cannot change and the per-access re-check is redundant. MMIO
		// disarms them (see load64/store64).
		c.memFast = true
		n, halted, err := 0, false, error(nil)
		if m := sb.mega; m == nil {
			n, halted, err = c.execBlock(sb.insts)
		} else {
			n, depth, sb, halted, err = c.runMega(sb, m, asGen, depth)
		}
		c.memFast = false
		c.Insts += uint64(n)
		c.Cycles += uint64(n) * CostInst
		c.Blocks++
		if c.sampler != nil && c.Cycles >= c.sampleNext {
			c.takeSample()
		}
		if halted || err != nil {
			return halted, err
		}
		if !c.chainOn || depth >= maxChainBlocks {
			return false, nil
		}
		indirect := false
		switch {
		case sb.linkable:
		case sb.indirect && c.indirectOn:
			indirect = true
		default:
			return false, nil // HLT exit, or indirect with the cache off
		}
		rip := c.RIP // the exit target
		// Link lookup. Direct exits key up to two slots (taken and
		// fall-through); indirect exits use the monomorphic cache and
		// require the dynamic target to match the recorded VA.
		var l *chainLink
		li := -1
		if indirect {
			if !sb.ilink.empty() && sb.ilink.va == rip {
				l = &sb.ilink
			}
		} else {
			for i := range sb.links {
				if sb.links[i].va == rip && !sb.links[i].empty() {
					li, l = i, &sb.links[i]
					break
				}
			}
		}
		if l != nil {
			if l.nat != nil {
				// Native call-site link: valid while the native table is
				// unchanged since it was recorded.
				if l.gen == c.blockGen {
					nsb, halted, err := c.chainNative(l, indirect)
					if nsb == nil {
						return halted, err
					}
					sb = nsb
					asGen = c.AS.Generation() // the native may have remapped
					continue
				}
			} else if l.sb.gen == c.blockGen && l.gen == asGen && l.ref.Version() == l.ver {
				c.ChainedBlocks++
				if indirect {
					c.IndirectChained++
				}
				sb = l.sb
				continue
			}
		}
		// No valid link. Resolve the successor through the dispatch path
		// — identical accounting to returning to the Run loop — and
		// record the link for next time.
		c.chainMisses++
		if rip == HostReturn {
			return true, nil
		}
		if rip >= c.nativeLo && rip < c.nativeHi {
			if nat, native := c.natives[rip]; native {
				// Kernel entry point: record a native call-site link and
				// run the native inline — the call, the native and its
				// return-target block all stay inside the chain.
				nl := chainLink{va: rip, gen: c.blockGen, nat: nat}
				if indirect {
					sb.ilink = nl
					l = &sb.ilink
				} else {
					slot := directSlot(sb, li)
					sb.links[slot] = nl
					l = &sb.links[slot]
				}
				nsb, halted, err := c.chainNative(l, indirect)
				if nsb == nil {
					return halted, err
				}
				sb = nsb
				asGen = c.AS.Generation() // the native may have remapped
				continue
			}
		}
		nsb, e, ferr := c.fetchBlock()
		if ferr != nil {
			return false, c.fault("fetch", ferr)
		}
		if nsb == nil {
			return c.Step() // unbuildable entry: single-step fallback
		}
		nl := chainLink{va: rip, ver: e.Version(), gen: asGen, ref: e.Ref(), sb: nsb}
		if indirect {
			sb.ilink = nl // monomorphic: the newest target wins
		} else {
			sb.links[directSlot(sb, li)] = nl
			c.formMega(nsb, rip, asGen) // the new link may close a loop
		}
		sb = nsb
	}
}

// formMega fuses into head's loop megablock the first cycle of at most
// maxMegaParts valid direct links it finds from head, entered at va, back
// to head on va's page. runChain calls it when it records a direct link,
// the last of a cycle's links to be recorded; a re-formation reuses the
// megablock's storage.
func (c *CPU) formMega(head *superblock, va, asGen uint64) {
	var buf [maxMegaParts]*chainLink
	cycle := c.megaCycle(head, head, va&^mm.PageMask, asGen, buf[:0])
	if cycle == nil {
		return
	}
	m := head.mega
	if m == nil {
		m = &megablock{}
		head.mega = m
	}
	m.insts, m.parts, m.stores = m.insts[:0], m.parts[:0], false
	sb := head
	for i, l := range cycle {
		for _, in := range sb.insts {
			m.stores = m.stores || in.k == kSTORE || in.k == kSTRIP || in.k == kXORM || in.k == kPUSH
		}
		g := sb.insts[len(sb.insts)-1]
		g.k, g.r1, g.r2, g.imm = kGuard, isa.Reg(i), isa.Reg(condTaken[g.k]), int64(l.va)
		m.insts = append(append(m.insts, sb.insts[:len(sb.insts)-1]...), g)
		m.parts = append(m.parts, sb)
		sb = l.sb
	}
	back := cycle[len(cycle)-1]
	m.va, m.gen, m.ver, m.ref = va, asGen, back.ver, back.ref
}

// megaCycle extends path by a depth-first search from sb for valid direct
// links that stay on page and reach head, returning nil if none does
// within maxMegaParts links. Every block on the path must end in a JMP or
// Jcc, the branches a guard can carry.
func (c *CPU) megaCycle(sb, head *superblock, page, asGen uint64, path []*chainLink) []*chainLink {
	if k := sb.insts[len(sb.insts)-1].k; len(path) == maxMegaParts || k < kJMP || k > kJAE {
		return nil
	}
	for i := range sb.links {
		l := &sb.links[i]
		if l.sb == nil || l.va&^mm.PageMask != page ||
			l.sb.gen != c.blockGen || l.gen != asGen || l.ref.Version() != l.ver {
			continue
		}
		if l.sb == head {
			return append(path, l)
		}
		if p := c.megaCycle(l.sb, head, page, asGen, append(path, l)); p != nil {
			return p
		}
	}
	return nil
}

// directSlot picks the links slot a direct exit's new record goes into:
// the stale slot already keyed by this target (refresh in place), a free
// slot, or — with both slots live with other targets — slot 1 (evict the
// newer).
func directSlot(sb *superblock, li int) int {
	if li >= 0 {
		return li
	}
	for i := range sb.links {
		if sb.links[i].empty() {
			return i
		}
	}
	return 1
}

// chainNative runs the native call-site link l inline — without
// returning to the dispatch loop — and resolves the block at the
// native's return address, chaining into l.ret when it validates and
// re-recording it otherwise. Accounting is identical to the dispatch
// path: runNative charges the same cost/sample/pop sequence wherever it
// is invoked, and the return-target resolution mirrors the block-link
// miss path. Returns the next block to execute in the chain; a nil
// block means runChain must return (halted, err) to the dispatch loop
// (host return, a native→native transfer, a fault, or the single-step
// fallback).
func (c *CPU) chainNative(l *chainLink, indirect bool) (*superblock, bool, error) {
	if halted, err := c.runNative(l.nat); halted || err != nil {
		return nil, halted, err
	}
	rip := c.RIP
	// Monomorphic return-target cache, full block-link validation.
	if r := l.ret; r != nil && r.va == rip &&
		r.sb.gen == c.blockGen && r.gen == c.AS.Generation() && r.ref.Version() == r.ver {
		c.ChainedBlocks++
		if indirect {
			c.IndirectChained++
		}
		return r.sb, false, nil
	}
	c.chainMisses++
	if rip == HostReturn {
		return nil, true, nil
	}
	if rip >= c.nativeLo && rip < c.nativeHi {
		if _, native := c.natives[rip]; native {
			return nil, false, nil // native→native: the dispatch loop runs it
		}
	}
	gen := c.AS.Generation()
	nsb, e, ferr := c.fetchBlock()
	if ferr != nil {
		return nil, false, c.fault("fetch", ferr)
	}
	if nsb == nil {
		halted, err := c.Step() // unbuildable entry: single-step fallback
		return nil, halted, err
	}
	l.ret = &chainLink{va: rip, ver: e.Version(), gen: gen, ref: e.Ref(), sb: nsb}
	return nsb, false, nil
}

// fetchBlock returns the superblock entered at c.RIP and its translation,
// building and caching the block on a miss. A nil block (with nil error)
// means the entry cannot start a block — the caller single-steps it
// instead.
func (c *CPU) fetchBlock() (*superblock, mm.Entry, error) {
	rip := c.RIP
	e, hit, err := c.TLB.Entry(rip, mm.AccessExec)
	if err != nil {
		return nil, e, err
	}
	if !hit {
		c.Cycles += CostTLBMiss
	}
	off := int(rip & mm.PageMask)
	ver := e.Version()
	var pb *pageBlocks
	if e.Frame == c.lastBlockFrame {
		pb = c.lastPB
	} else if pb = c.blocks[e.Frame]; pb != nil {
		c.lastBlockFrame, c.lastPB = e.Frame, pb
	}
	if pb != nil && pb.ver == ver {
		if sb := pb.get(off); sb != nil {
			c.blockHits++
			if sb == noBlock {
				return nil, e, nil
			}
			return sb, e, nil
		}
	} else {
		if len(c.blocks) >= maxBlockPages {
			// Full invalidation, not just a map clear: chain links hold
			// direct superblock pointers, so only the generation bump
			// actually retires the old block graph and keeps the
			// footprint bound meaningful.
			c.invalidateBlocks()
		}
		pb = &pageBlocks{ver: ver}
		c.blocks[e.Frame] = pb
		c.lastBlockFrame, c.lastPB = e.Frame, pb
	}
	c.blockMisses++

	window := e.CodeWindow(off)
	sb := &superblock{gen: c.blockGen}
	var last isa.Op
	for o := 0; ; {
		in, derr := isa.Decode(window[o:])
		if derr != nil {
			// Truncated at the page edge means a (potential) straddler;
			// any other decode error past the entry also just ends the
			// block — the single-step fallback reproduces the exact
			// fault if execution ever reaches that byte.
			break
		}
		sb.insts = append(sb.insts, decoded(in))
		last = in.Op
		o += in.Len
		if in.Op.IsBranch() || in.Op == isa.OpHLT {
			break
		}
		if o >= len(window) {
			break // next instruction starts on the next page
		}
		if va := rip + uint64(o); va >= c.nativeLo && va < c.nativeHi {
			if _, native := c.natives[va]; native {
				break // fall-through onto a kernel entry point must dispatch
			}
		}
	}
	if len(sb.insts) == 0 {
		pb.set(off, noBlock) // entry straddles the page or is undecodable
		return nil, e, nil
	}
	switch {
	case last == isa.OpHLT:
		// Halt: no successor to link.
	case last == isa.OpRET, last.IsIndirectBranch():
		sb.indirect = true // dynamic target: monomorphic indirect cache
	default:
		sb.linkable = true // direct branch or fall-through cut
	}
	pb.set(off, sb)
	return sb, e, nil
}

// runMega runs sb, a megablock head, as runChain runs a block: through
// its megablock m when that is valid for entry here, charging the
// constituents the pass went through, and on its own otherwise. It
// returns the count runChain charges for the block the pass ended in,
// that block's chain depth and the block, and (halted, err) as
// execBlock.
func (c *CPU) runMega(sb *superblock, m *megablock, asGen uint64, depth int) (int, int, *superblock, bool, error) {
	if c.sampler != nil || m.gen != asGen || m.va != c.RIP || m.ref.Version() != m.ver {
		n, halted, err := c.execBlock(sb.insts)
		return n, depth, sb, halted, err
	}
	m.left, m.base, m.laps, m.part = maxChainBlocks-depth, 0, 0, 0
	c.mega = m
	n, halted, err := c.execBlock(m.insts)
	k, done := uint64(maxChainBlocks-depth-m.left), uint64(m.laps*len(m.insts)+m.base)
	c.Insts += done
	c.Cycles += done * CostInst
	c.Blocks += k
	c.ChainedBlocks += k
	return n - m.base, depth + int(k), m.parts[m.part], halted, err
}
