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
// Traces. runChain records the path it runs: the blocks it executes one
// at a time, in order, each with the VA it was entered at and, for an
// exit into a native, the native's call-site link. The path ends at a
// block that heads a valid trace, at the return to the dispatch loop, or
// after a native that remapped. A direct branch other than a CALL (a
// CALL of a function twice is not a loop) that reaches a block already
// on the path, k, from its last block, e, closes a loop: the path keeps
// the branch as its back edge and records nothing while later laps run
// k..e again. A lap that leaves the loop anywhere but at e's exit ends
// the path; e's exit by its other direction goes on recording, the
// loop's tail, and a second loop ends the path. formTrace then copies
// the blocks' records into one list on the path's first block, its
// trace, up to the first block or direct link that no longer holds. Each
// block on it is a constituent, and its exit is followed or replaced by
// a boundary record that goes on at the VA the path went on at:
//
//   - a JMP/Jcc becomes a kGuard that keeps the branch's disp and len
//     and holds its condTaken mask in r2, and a CALL a kCallEdge: the
//     call, then its kGuard;
//   - a fall-through cut keeps its record and is followed by a kGuard
//     of length and mask 0, a link record;
//   - a RET (a retpoline's push; ret too) becomes a kRetEdge, the
//     return and then its kLink, and any other indirect exit (CALLR/
//     CALLM, JMPR/JMPM) keeps its record and is followed by a kLink;
//   - an exit into a native is followed by a kNative that runs the
//     native as chainNative does (Cost, Fn, the return pop) and checks
//     the return;
//   - the exit of a loop's last constituent e becomes a kLoop, a kGuard
//     whose recorded VA is k's: that target goes back to k's records,
//     one more lap, and the other goes on to the tail's link record or,
//     without a tail, ends the trace.
//
// A boundary record holds the constituent it ends in r1 and the
// recorded VA in imm. A trace is thus a straight path with at most one
// back edge, and a driver call that loops in its middle is one trace:
// ext4_get_block's entry, PLT stub, native, extent-scan laps and return,
// as a wrapped ioctl's every wrapper, PLT stub and native. A run leaves
// a loop early only by an exit of k..e-1. A trace recorded on a call
// that took one trip goes straight through its loop. When a run of a
// trace without a back edge leaves constituent e by a direct exit for
// the VA of a constituent k <= e, and e has a link there, loopTrace
// forms it again with that back edge, keeping e+1... as the tail; a
// trace with a back edge never forms again that way.
//
// runChain enters a block's trace instead of the block when the block
// is entered at the trace's VA, under the address-space generation it
// was recorded at, with every constituent current (its frame at the
// content version it was decoded from) and no sampler attached
// (blockGen is implied: only a current block is reached). execBlock
// then runs the whole trace in one pass. A boundary goes on to the next
// constituent while control stays on the recorded path and the chain
// bound allows another block. A store that took the slow path (the only
// kind that can bump a frame version: the resident probes decline
// exec-mapped frames) or an MMIO access disarms the probes, and the
// next boundary re-checks the constituents. After a native the return
// is checked as nativeReturn would follow it, and against the
// native-table epoch, the address-space generation and the
// constituents, since a native can remap, register natives or rewrite
// code. The constituent check reads frames only when some frame's
// version advanced since it last passed (mm.CodeWrites). Any failed
// check leaves at the real target, exactly where per-block chaining
// would be, and runChain goes on from that constituent's exit through
// its links; a failed check after a native resumes as chainNative's
// return resolution does.
//
// Accounting is per-block chaining's. A direct edge on a trace is a
// link that was valid when the trace formed, and stays valid with it,
// so runTrace charges the constituents a run went through and their
// direct edges as followed links when the run ends, from prefix sums
// over the constituents and the laps of the back edge: up to constituent
// j >= k after some laps a run has gone through cum[j] plus laps times
// k..e's instructions (and blocks and direct edges, the back edge
// counted). An indirect or
// native edge consults the link a per-block exit would look up, since
// another path through the block may have rewritten it: on a hit it
// counts as chained, and an indirect miss replays the dispatch
// resolution (the TLB lookup, the block-cache hit, the re-recorded
// link), so a return polymorphic across call sites stays on the trace
// and every counter, TLB access and later link matches (a native's
// call-site miss leaves the run before the native). The per-run state
// lives in CPU.run, and a native saves and restores it, so a native
// that re-enters the vCPU with a nested Call can run traces, even this
// one, underneath. A sampler keeps traces off, so samples land where
// chaining puts them; ADELIE_NOCHAIN=1 records no links and so forms no
// trace, and under ADELIE_NOINDIRECT=1 a path ends at the first
// indirect exit, so traces hold direct edges only.
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
// re-check is provably redundant; a trace disarms them around each
// native and re-arms them only once the generation is checked. A
// declined probe falls back to load64/store64/Push/Pop with identical
// accounting. An access that turns out to be MMIO, and a store that
// takes the slow path, disarm the probes for the rest of the block
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
	"slices"
	"sync"
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

// entryLink is a dispatch entry cache slot: a block link without the
// native fields, which the cache never holds.
type entryLink struct {
	va  uint64
	ver uint64
	gen uint64
	ref mm.FrameRef
	sb  *superblock
}

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

	// ref and ver are the frame the block was decoded from and its
	// content version then: the block is current while they agree.
	ref mm.FrameRef
	ver uint64

	// linkable marks exits eligible for direct trace linking: a direct
	// branch (CALL/JMP/Jcc) or a fall-through cut. HLT never links.
	linkable bool

	// indirect marks exits eligible for the monomorphic indirect target
	// cache: RET or a register/GOT-indirect branch. The dynamic target
	// must match links[0].va for the link to be followed.
	indirect bool

	// links caches up to two resolved successors of a direct exit — a
	// conditional exit has exactly two targets (taken and fall-through).
	// An indirect exit's links[0] is its monomorphic target cache: the
	// last successor it resolved to (one slot, newest target wins).
	links [2]chainLink

	// trace is the trace headed by this block, if one formed.
	trace *trace

	// mark is the id of the last path (runChain's) that ran this block
	// one at a time: a branch to a block marked with the running path's
	// id may close a loop.
	mark uint64
}

// trace is a path of blocks fused into one record list (see the
// package comment's "Traces"): the constituents' records, each
// constituent's exit followed or replaced by its boundary record. It is
// valid for entry at va while the address-space generation is gen and
// every constituent is current (its frame at the version it was decoded
// from).
type trace struct {
	insts   []inst
	parts   []tracePart
	natives []traceNative
	va      uint64
	gen     uint64 // address-space generation when recorded
	bgen    uint64 // blockGen when recorded: natives re-check it
	writes  uint64 // mm.CodeWrites when the frames were last current
	// back is the constituent a loop's back edge goes to, or -1: the
	// exit of the loop's last constituent, a kLoop record, goes back to
	// back's records or on to the next constituent, the loop's tail.
	// loop is insts from back's first record on.
	back int
	loop []inst
	// lapInsts, lapBlocks and lapDirect are the instructions,
	// constituents and direct edges of one lap of the loop.
	lapInsts, lapBlocks, lapDirect uint64
	active                         int // runs in progress: formTrace must not reuse the storage
}

// tracePart is one constituent of a trace, entered at va. cum and dcum
// count the instructions and the direct edges before it on the trace,
// the back edge not included.
type tracePart struct {
	sb        *superblock
	va        uint64
	start     int32 // index of its first record
	n         int32 // its instructions
	cum, dcum uint32
}

// traceNative is a native a trace runs at a boundary: its call-site
// link, which the run checks as a followed link would be checked, and
// the return VA the path went on at.
type traceNative struct {
	nat  *Native
	link *chainLink
	ret  uint64
	part int32 // the call site's constituent
	ind  bool  // the call site's exit is an indirect edge
}

// current reports whether every constituent of t is current. It reads
// their frames' versions only when some frame's version has advanced
// since it last found them current (mm.CodeWrites).
func (t *trace) current() bool { return mm.CodeWrites() == t.writes || t.recheck() }

// recheck is current's slow path: it reads every frame.
func (t *trace) recheck() bool {
	w := mm.CodeWrites()
	for i := range t.parts {
		if sb := t.parts[i].sb; sb.ref.Version() != sb.ver {
			return false
		}
	}
	t.writes = w
	return true
}

// pos returns how many instructions, blocks and direct edges a run of t
// goes through from its start to the start of constituent j after lap
// back edges (none before the loop's first constituent).
func (t *trace) pos(j, lap int) (insts, blocks, direct uint64) {
	p, l := &t.parts[j], uint64(lap)
	return uint64(p.cum) + l*t.lapInsts, uint64(j) + l*t.lapBlocks, uint64(p.dcum) + l*t.lapDirect
}

// partAt returns the constituent whose records hold index i.
func (t *trace) partAt(i int) int {
	lo, hi := 0, len(t.parts)-1
	if int(t.parts[hi].start) <= i {
		return hi // a run that ran to the end, or returned from its last
	}
	for lo < hi {
		if m := (lo + hi + 1) / 2; int(t.parts[m].start) <= i {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

// traceRun is the state of one trace run, CPU.run: execBlock's boundary
// records read and update it, and a native saves and restores it.
type traceRun struct {
	t    *trace
	left int // boundaries the chain bound still allows
	laps int // back edges taken
	// part is the constituent whose boundary the run left at, or -1.
	part int
	// nat is the native a run ended after, or -1.
	nat int
}

// blockChunkBytes is the granularity at which superblock pointer storage
// is allocated within a page. Code rarely fills whole pages (module
// functions are tens to hundreds of bytes) and entry points cluster in
// the code actually executed, so chunking keeps the cache's footprint
// proportional to that code while the hit path stays a bounds-free
// double index instead of a map probe.
const blockChunkBytes = 256

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
		c.entry[entrySlot(rip)] = entryLink{va: rip, ver: e.Version(), gen: gen, ref: e.Ref(), sb: sb}
	}
	return c.runChain(sb)
}

// pathStep is one block of the path runChain is recording: the block,
// the VA it was entered at and, when its exit went through a native,
// the native's call-site link.
type pathStep struct {
	sb  *superblock
	va  uint64
	nat *chainLink
}

// path is the path runChain is recording (see "Traces"): its blocks are
// c.path[base:], run under the address-space generation gen.
type path struct {
	base int
	id   uint64 // the mark of the blocks run on it
	gen  uint64
	// back and end are the steps (from base) of the loop it closed, its
	// back edge going from end to back, or -1. lap is the step the
	// running lap expects next, or -1 when the path records: before the
	// loop closed, or past it, on its tail.
	back, end, lap int
}

// endPath forms p's trace and starts a new path under generation gen.
func (c *CPU) endPath(p *path, gen uint64) {
	if len(c.path) > p.base+1 || p.back >= 0 {
		c.formTrace(p)
	}
	c.path = c.path[:p.base]
	c.pathID++
	p.id, p.gen, p.back, p.lap = c.pathID, gen, -1, -1
}

// runChain executes sb, entered at c.RIP, and then follows chain links
// block→block — running native call-site links inline and a block's
// trace in its place — until an exit dispatches (uncached or mismatched
// indirect target, host return, native→native transfer, invalidated
// link) or the chain bound is reached. The path it ran one block at a
// time becomes a trace when it ends. The path is kept on c.path above
// the paths of the runChain calls this one is nested in (a native's
// Call), and dropped on return.
func (c *CPU) runChain(sb *superblock) (bool, error) {
	c.pathID++
	p := path{base: len(c.path), id: c.pathID, gen: c.AS.Generation(), back: -1, lap: -1}
	halted, err := c.chain(sb, &p)
	c.endPath(&p, 0)
	if p.base == 0 && c.pathBuf != nil {
		*c.pathBuf, c.path = c.path[:0], nil
		pathPool.Put(c.pathBuf)
		c.pathBuf = nil
	}
	return halted, err
}

// pushStep appends s to c.path. A path's first step fits in c.path1, so
// a block run alone between two traces takes no buffer; a longer path
// takes one from pathPool, which the outermost runChain gives back.
// Machines forked for a few hundred calls record on their first few, so
// they share the pool's buffers instead of allocating their own.
func (c *CPU) pushStep(s pathStep) {
	if len(c.path) == cap(c.path) {
		switch {
		case c.path == nil:
			c.path = c.path1[:0]
		case c.pathBuf == nil:
			c.pathBuf = pathPool.Get().(*[]pathStep)
			c.path = append((*c.pathBuf)[:0], c.path...)
		}
	}
	c.path = append(c.path, s)
}

// pathPool holds the path buffers of paths longer than one block.
var pathPool = sync.Pool{New: func() any {
	s := make([]pathStep, 0, 16) // a wrapped ioctl's path fits
	return &s
}}

// chain is runChain's loop. Every block runs through execBlock with the
// resident memory probes armed, and is charged once after it retires:
// its instructions, one cycle each, and one Blocks count.
func (c *CPU) chain(sb *superblock, p *path) (bool, error) {
	// The address-space generation can only change inside a native
	// (chainNative refreshes it); hoisting the atomic read out of the
	// per-transition link validation is therefore exact.
	asGen := p.gen
	for depth := 0; ; depth++ {
		// Arm the resident probes: no native, actor or IRQ runs between
		// here and the end of the block, so the address-space generation
		// cannot change and the per-access re-check is redundant. MMIO
		// and slow stores disarm them (see load64/store64).
		c.memFast = true
		n, halted, err := 0, false, error(nil)
		if t := sb.trace; t != nil && t.va == c.RIP && t.gen == asGen && c.sampler == nil && t.current() {
			if len(c.path) > p.base {
				c.endPath(p, asGen) // the path ends where a trace begins
			}
			var tn *traceNative
			n, depth, sb, tn, halted, err = c.runTrace(t, depth)
			c.memFast = false
			if tn != nil {
				// The run ended after a native: the call site is charged,
				// and the return resolves as chainNative resolves it.
				if halted || err != nil {
					return halted, err
				}
				nl, _, halted, err := c.nativeReturn(tn.link, tn.ind)
				if nl == nil {
					return halted, err
				}
				sb = nl.sb
				if g := c.AS.Generation(); g != asGen {
					asGen = g
					c.endPath(p, asGen)
				}
				continue
			}
		} else {
			if c.sampler == nil { // a sampler keeps traces off
				c.record(p, sb)
			}
			n, halted, err = c.execBlock(sb.insts)
			c.memFast = false
		}
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
			if l = &sb.links[0]; l.empty() || l.va != rip {
				l = nil
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
					c.pathNative(p, l)
					nl, _, halted, err := c.chainNative(l, indirect)
					if nl == nil {
						return halted, err
					}
					sb = nl.sb
					if g := c.AS.Generation(); g != asGen {
						asGen = g // the native remapped
						c.endPath(p, asGen)
					}
					continue
				}
			} else if l.sb.gen == c.blockGen && l.gen == asGen && l.ref.Version() == l.ver {
				c.ChainedBlocks++
				if indirect {
					c.IndirectChained++
				} else if l.sb.mark == p.id {
					c.closeLoop(p, sb, l.sb, rip)
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
				l = &sb.links[0]
				if !indirect {
					l = &sb.links[directSlot(sb, li, asGen)]
				}
				*l = nl
				c.pathNative(p, l)
				rl, _, halted, err := c.chainNative(l, indirect)
				if rl == nil {
					return halted, err
				}
				sb = rl.sb
				if g := c.AS.Generation(); g != asGen {
					asGen = g // the native remapped
					c.endPath(p, asGen)
				}
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
			sb.links[0] = nl // monomorphic: the newest target wins
		} else {
			sb.links[directSlot(sb, li, asGen)] = nl
			if nsb.mark == p.id {
				c.closeLoop(p, sb, nsb, rip)
			}
		}
		sb = nsb
	}
}

// record adds sb, entered at c.RIP, to p. While p laps the loop it
// closed, a block the lap expects is not added again and any other ends
// the path, except after the loop's last block: a block other than the
// loop's first there is the exit's other direction, and the path records
// on from it, the loop's tail.
func (c *CPU) record(p *path, sb *superblock) {
	if j := p.lap; j >= 0 {
		if j > p.end {
			j = p.back // the back edge, or the tail
		}
		if s := &c.path[p.base+j]; s.sb == sb && s.va == c.RIP {
			p.lap = j + 1
			return
		}
		if p.lap > p.end {
			p.lap = -1
		} else {
			c.endPath(p, p.gen)
		}
	}
	c.pushStep(pathStep{sb: sb, va: c.RIP})
	sb.mark = p.id
}

// pathNative notes on p that the exit of the block just run went
// through the native link l. On a lap, that must be the native the
// block's exit went through on the first.
func (c *CPU) pathNative(p *path, l *chainLink) {
	switch {
	case len(c.path) == p.base:
	case p.lap < 0:
		c.path[len(c.path)-1].nat = l
	case c.path[p.base+p.lap-1].nat != l:
		c.endPath(p, p.gen)
	}
}

// closeLoop acts on the direct exit of sb, the path's last block, to
// to, a block on it (marked with its id), entered at va — unless the
// exit is a CALL (a function called twice on one path is not a loop) or
// the path is on a lap. A path without a loop records the exit as its
// back edge and laps on; a path past its loop ends there.
func (c *CPU) closeLoop(p *path, sb, to *superblock, va uint64) {
	if sb.insts[len(sb.insts)-1].k == kCALL || p.lap >= 0 {
		return
	}
	if steps := c.path[p.base:]; p.back < 0 {
		for k := range steps {
			if steps[k].sb == to && steps[k].va == va {
				p.back, p.end, p.lap = k, len(steps)-1, k
				return
			}
		}
	}
	c.endPath(p, p.gen)
}

// directSlot picks the links slot a direct exit's new record goes into:
// the stale slot already keyed by this target (refresh in place), a free
// slot, a block link recorded under an address-space generation other
// than gen, which no exit can follow again (a remap that moved the block
// leaves both its links keyed by the old VAs), or — with both slots live
// with other targets — slot 1 (evict the newer).
func directSlot(sb *superblock, li int, gen uint64) int {
	if li >= 0 {
		return li
	}
	for i := range sb.links {
		if l := &sb.links[i]; l.empty() || l.sb != nil && l.gen != gen {
			return i
		}
	}
	return 1
}

// chainNative runs the native call-site link l inline — without
// returning to the dispatch loop — and resolves the block at the
// native's return address (nativeReturn). Accounting is identical to
// the dispatch path: runNative charges the same cost/sample/pop sequence
// wherever it is invoked.
func (c *CPU) chainNative(l *chainLink, indirect bool) (*chainLink, bool, bool, error) {
	if halted, err := c.runNative(l.nat); halted || err != nil {
		return nil, false, halted, err
	}
	return c.nativeReturn(l, indirect)
}

// nativeReturn resolves the block at the return address of the native
// link l, which has just run: it chains into l.ret when that validates
// and re-records it otherwise, mirroring the block-link miss path. It
// returns the link the block is entered through and whether it was
// followed rather than recorded; a nil link means runChain must return
// (halted, err) to the dispatch loop (host return, a native→native
// transfer, a fault, or the single-step fallback).
func (c *CPU) nativeReturn(l *chainLink, indirect bool) (*chainLink, bool, bool, error) {
	rip := c.RIP
	// Monomorphic return-target cache, full block-link validation.
	if r := l.ret; r != nil && r.va == rip &&
		r.sb.gen == c.blockGen && r.gen == c.AS.Generation() && r.ref.Version() == r.ver {
		c.ChainedBlocks++
		if indirect {
			c.IndirectChained++
		}
		return r, true, false, nil
	}
	c.chainMisses++
	if rip == HostReturn {
		return nil, false, true, nil
	}
	if rip >= c.nativeLo && rip < c.nativeHi {
		if _, native := c.natives[rip]; native {
			return nil, false, false, nil // native→native: the dispatch loop runs it
		}
	}
	gen := c.AS.Generation()
	nsb, e, ferr := c.fetchBlock()
	if ferr != nil {
		return nil, false, false, c.fault("fetch", ferr)
	}
	if nsb == nil {
		halted, err := c.Step() // unbuildable entry: single-step fallback
		return nil, false, halted, err
	}
	if l.ret == nil {
		l.ret = new(chainLink)
	}
	*l.ret = chainLink{va: rip, ver: e.Version(), gen: gen, ref: e.Ref(), sb: nsb}
	return l.ret, false, false, nil
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
	sb := &superblock{gen: c.blockGen, ref: e.Ref(), ver: ver}
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

// runTrace runs t, whose head runChain entered at chain depth depth, in
// one execBlock pass and charges the constituents the run went through
// before the one it ended in, as runChain charges blocks and followed
// links. It returns what runChain charges and goes on from: the
// instructions of that constituent, its chain depth and block, and
// (halted, err) as execBlock. A run that ended after a native ran has
// its call site charged too; it returns the call site's depth and the
// native instead, whose return runChain resolves.
//
// The charge is made when the run ends, natives included: the counters
// only add up, and nothing a native does reads them (a nested Call's
// instruction budget counts from its own start).
func (c *CPU) runTrace(t *trace, depth int) (int, int, *superblock, *traceNative, bool, error) {
	r := &c.run
	r.t, r.left, r.laps, r.part, r.nat = t, maxChainBlocks-depth, 0, -1, -1
	t.active++
	i, halted, err := c.execBlock(t.insts)
	t.active--
	r.t = nil // Step and plain blocks run no trace
	if r.laps > 0 {
		i += len(t.insts) - len(t.loop) // counted from the loop's first record
	}
	depth = maxChainBlocks - r.left
	e := r.part
	if r.nat >= 0 {
		c.chargeTrace(t, e+1, r.laps) // the call site retired
		return 0, depth - 1, nil, &t.natives[r.nat], halted, err
	}
	if e >= 0 { // left at boundary record i: the whole constituent ran
		c.chargeTrace(t, e, r.laps)
		n, sb := int(t.parts[e].n), t.parts[e].sb
		if g := &t.insts[i]; g.k == kGuard && c.RIP != uint64(g.imm) && t.back < 0 {
			c.loopTrace(t, e)
		}
		return n, depth, sb, nil, halted, err
	}
	i-- // the record the run ended at
	e = t.partAt(i)
	c.chargeTrace(t, e, r.laps)
	return i + 1 - int(t.parts[e].start), depth, t.parts[e].sb, nil, halted, err
}

// loopTrace forms t again with a back edge from constituent e, whose
// direct exit a run of t just left for c.RIP, when that is the VA of a
// constituent k <= e: the path t was recorded on took one trip of a
// loop. The constituents after e stay on, the loop's tail. It waits
// until e's exit has a link to k, which runChain records on the first
// such exit.
func (c *CPU) loopTrace(t *trace, e int) {
	for k := range e + 1 {
		if to := &t.parts[k]; to.va == c.RIP {
			if !c.edgeHolds(&pathStep{sb: t.parts[e].sb}, &pathStep{sb: to.sb, va: to.va}) {
				return
			}
			p := path{base: len(c.path), gen: t.gen, back: k, end: e, lap: -1}
			for i := range t.parts {
				c.pushStep(pathStep{sb: t.parts[i].sb, va: t.parts[i].va})
			}
			for _, tn := range t.natives {
				c.path[p.base+int(tn.part)].nat = tn.link
			}
			c.formTrace(&p)
			c.path = c.path[:p.base]
			return
		}
	}
}

// chargeTrace charges the constituents a run of t went through before
// constituent j after lap back edges, and the direct edges between them,
// as runChain charges blocks and followed links. Indirect and native
// edges are charged where they are crossed.
func (c *CPU) chargeTrace(t *trace, j, lap int) {
	insts, blocks, direct := t.pos(j, lap)
	c.Insts += insts
	c.Cycles += insts * CostInst
	c.Blocks += blocks
	c.ChainedBlocks += direct
}

// linked reports whether l is a link runChain would follow to sb at va
// under generation gen, given that sb is current (a trace's check).
func linked(l *chainLink, va uint64, sb *superblock, gen uint64) bool {
	return l.va == va && l.sb == sb && l.gen == gen
}

// traceLink crosses the indirect edge out of constituent e of the
// running trace to va where runChain would miss: the block's monomorphic
// cache does not hold va (execBlock has checked), so it replays the
// dispatch resolution's TLB lookup and block-cache hit and re-records
// the cache. The trace's checks have shown that va translates to the
// recorded block.
func (c *CPU) traceLink(e int, va uint64) {
	t := c.run.t
	c.chainMisses++
	// The translation cannot fail: va was mapped executable under the
	// trace's generation, which is still current.
	en, hit, _ := c.TLB.Entry(va, mm.AccessExec)
	if !hit {
		c.Cycles += CostTLBMiss
	}
	c.blockHits++
	l := &t.parts[e].sb.links[0] // field by field: a whole-struct store is a typedmemmove
	l.va, l.ver, l.gen, l.ref, l.sb, l.nat, l.ret = va, en.Version(), t.gen, en.Ref(), t.parts[e+1].sb, nil, nil
}

// formTrace fuses p, a path that just ended, into a trace on its first
// block (see "Traces"). The trace ends before the first block that is
// no longer current or after the first whose direct or native edge on
// the path no longer holds; a loop whose back edge no longer holds, or
// that the cut reaches, ends after its last block without the back
// edge. A path of one block without a back edge forms nothing; neither
// does one whose first block heads a running trace.
func (c *CPU) formTrace(p *path) {
	steps := c.path[p.base:]
	n, back, end := len(steps), p.back, p.end
	if n < 2 && back < 0 || c.sampler != nil || p.gen != c.AS.Generation() {
		return
	}
	t := steps[0].sb.trace
	if t != nil && t.active > 0 {
		return
	}
	w := mm.CodeWrites()
	for i := range n {
		if sb := steps[i].sb; sb.gen != c.blockGen || sb.ref.Version() != sb.ver {
			n = i
			break
		}
	}
	for i := range n {
		if i == end && back >= 0 && !c.edgeHolds(&steps[i], &steps[back]) {
			n, back = i+1, -1
			break
		}
		if i+1 < n && !c.edgeHolds(&steps[i], &steps[i+1]) {
			n = i + 1
			break
		}
	}
	if back < 0 || end >= n {
		back, end = -1, -1
	}
	if n < 2 && back < 0 {
		return
	}
	steps = steps[:n]
	nrec, nnat := 0, 0
	for i := range steps {
		s := &steps[i]
		nrec += len(s.sb.insts)
		k := s.sb.insts[len(s.sb.insts)-1].k
		switch {
		case i == end:
			if k < kJMP || k > kJAE {
				nrec++ // a cut's kLoop
			}
			if i < n-1 {
				nrec++ // the tail's link record
			}
		case i == n-1:
		case s.nat != nil:
			nrec, nnat = nrec+1, nnat+1
		case k != kRET && k != kCALL && (s.sb.indirect || k < kJMP || k > kJAE):
			nrec++ // a link record: the others fuse with their branch
		}
	}
	if t == nil {
		t = &trace{}
		steps[0].sb.trace = t
	}
	t.insts = slices.Grow(t.insts[:0], nrec)
	t.parts = slices.Grow(t.parts[:0], n)
	t.natives = slices.Grow(t.natives[:0], nnat)
	t.va, t.gen, t.bgen, t.writes, t.back = steps[0].va, p.gen, c.blockGen, w, back
	total, direct := 0, 0
	for i := range steps {
		s := &steps[i]
		recs := s.sb.insts
		t.parts = append(t.parts, tracePart{sb: s.sb, va: s.va, start: int32(len(t.insts)), n: int32(len(recs)),
			cum: uint32(total), dcum: uint32(direct)})
		total += len(recs)
		if i == n-1 && i != end {
			t.insts = append(t.insts, recs...) // the trace's end
			break
		}
		last := recs[len(recs)-1]
		t.insts = append(t.insts, recs[:len(recs)-1]...)
		if i == end {
			// The back edge, which the laps count, then the tail's link.
			if to := int64(steps[back].va); last.k >= kJMP && last.k <= kJAE {
				last.k, last.r1, last.r2, last.imm = kLoop, isa.Reg(i), isa.Reg(condTaken[last.k]), to
				t.insts = append(t.insts, last)
			} else {
				t.insts = append(t.insts, last, inst{k: kLoop, imm: to, r1: isa.Reg(i)})
			}
			if i < n-1 {
				direct++
				t.insts = append(t.insts, inst{k: kGuard, imm: int64(steps[i+1].va), r1: isa.Reg(i)})
			}
			continue
		}
		succ := steps[i+1].va
		switch {
		case s.nat != nil:
			t.insts = append(t.insts, last, inst{k: kNative, imm: int64(s.nat.va), r1: isa.Reg(i), disp: int32(len(t.natives))})
			t.natives = append(t.natives, traceNative{nat: s.nat.nat, link: s.nat, ret: succ, part: int32(i), ind: s.sb.indirect})
		case last.k == kRET:
			last.k, last.r1, last.imm, last.disp = kRetEdge, isa.Reg(i), int64(succ), int32(i+1)
			t.insts = append(t.insts, last)
		case s.sb.indirect:
			t.insts = append(t.insts, last, inst{k: kLink, imm: int64(succ), r1: isa.Reg(i), disp: int32(i + 1)})
		case last.k == kCALL:
			direct++
			last.k, last.r1, last.imm = kCallEdge, isa.Reg(i), int64(succ)
			t.insts = append(t.insts, last)
		case last.k >= kJMP && last.k <= kJAE:
			direct++
			last.k, last.r1, last.r2, last.imm = kGuard, isa.Reg(i), isa.Reg(condTaken[last.k]), int64(succ)
			t.insts = append(t.insts, last)
		default:
			direct++
			t.insts = append(t.insts, last, inst{k: kGuard, imm: int64(succ), r1: isa.Reg(i)})
		}
	}
	t.loop, t.lapInsts, t.lapBlocks, t.lapDirect = nil, 0, 0, 0
	if back >= 0 {
		k, e := &t.parts[back], &t.parts[end]
		t.loop = t.insts[k.start:]
		t.lapInsts = uint64(e.cum-k.cum) + uint64(e.n)
		t.lapBlocks = uint64(end - back + 1)
		t.lapDirect = uint64(e.dcum-k.dcum) + 1
	}
}

// edgeHolds reports whether the edge the path took from s to next can go
// on a trace: an indirect edge always can (a trace crosses it as a link
// would be looked up), a native edge while its link is current, and a
// direct edge while the link it was followed or recorded through is
// valid.
func (c *CPU) edgeHolds(s, next *pathStep) bool {
	if l := s.nat; l != nil {
		return l.nat != nil && l.gen == c.blockGen
	}
	if s.sb.indirect {
		return true
	}
	for i := range s.sb.links {
		if l := &s.sb.links[i]; l.va == next.va && l.sb == next.sb &&
			l.gen == c.AS.Generation() && l.ref.Version() == l.ver {
			return true
		}
	}
	return false
}
