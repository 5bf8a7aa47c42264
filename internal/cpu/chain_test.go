package cpu

import (
	"errors"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// Trace-linking tests: hot block exits chain block→block without
// returning to the dispatch loop, guarded by the successor frame's
// content version, the address-space generation and the native-table
// generation. See superblock.go.

// chainOff runs f with trace linking disabled for CPUs created inside.
func chainOff(t *testing.T, f func()) {
	t.Helper()
	was := SetChaining(false)
	defer SetChaining(was)
	f()
}

// fullMode turns trace linking and the indirect target cache on for
// CPUs the test creates, whichever mode the environment selected, and
// restores the previous defaults when the test ends.
func fullMode(t *testing.T) {
	t.Helper()
	wasChain, wasIndirect := SetChaining(true), SetIndirect(true)
	t.Cleanup(func() { SetChaining(wasChain); SetIndirect(wasIndirect) })
}

// loopCode is a multi-block program: an init block, a loop body block
// ending in a conditional branch (two linkable exits), and a RET block.
// Sum 1..n into RAX.
func loopCode(n int64) []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		{Op: isa.OpMOVI, R1: isa.RCX, Imm: n},
		// loop:
		{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX},
		{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0},
		{Op: isa.OpJNE, Disp: -19}, // back to ADD
		{Op: isa.OpRET},
	}
}

// TestChainFollowsHotLoop: re-executing a hot loop must follow trace
// links (the taken back-edge and the fall-through exit) instead of
// bouncing through the dispatch loop, with cycle and instruction
// accounting identical to unchained block execution.
func TestChainFollowsHotLoop(t *testing.T) {
	fullMode(t)
	chained := machine(t, loopCode(10))
	if got := run(t, chained); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	if got := run(t, chained); got != 55 {
		t.Fatalf("second run = %d, want 55", got)
	}
	hits, _ := chained.ChainStats()
	if hits == 0 {
		t.Fatal("hot loop followed no trace links")
	}
	if chained.ChainedBlocks >= chained.Blocks {
		t.Fatalf("chained %d of %d blocks; the first block of a Call always dispatches",
			chained.ChainedBlocks, chained.Blocks)
	}

	var unchained *CPU
	chainOff(t, func() {
		unchained = machine(t, loopCode(10))
		if got := run(t, unchained); got != 55 {
			t.Fatalf("unchained sum = %d, want 55", got)
		}
		if got := run(t, unchained); got != 55 {
			t.Fatalf("unchained second run = %d, want 55", got)
		}
	})
	if h, _ := unchained.ChainStats(); h != 0 || unchained.ChainedBlocks != 0 {
		t.Fatalf("chain-disabled vCPU followed %d links", unchained.ChainedBlocks)
	}
	// TLB-resident working set: charged cycles must be bit-identical
	// across modes (the cross-mode CI gate at unit scale).
	if chained.Cycles != unchained.Cycles || chained.Insts != unchained.Insts {
		t.Fatalf("chained (%d cycles, %d insts) != unchained (%d cycles, %d insts)",
			chained.Cycles, chained.Insts, unchained.Cycles, unchained.Insts)
	}
	if chained.Blocks != unchained.Blocks {
		t.Fatalf("blocks retired differ: chained %d, unchained %d", chained.Blocks, unchained.Blocks)
	}
}

// crossPageMachine lays block A (page 0) ending in a direct JMP to block
// B (page 1) and returns the CPU. B loads 7 into RAX and returns.
func crossPageMachine(t *testing.T) *CPU {
	t.Helper()
	c := machine(t, []isa.Inst{{Op: isa.OpNOP}})
	a := encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 3},
		isa.Inst{Op: isa.OpJMP}, // patched below
	)
	bVA := uint64(codeBase + mm.PageSize)
	// JMP disp is relative to the instruction after the JMP (len 5).
	disp := int64(bVA) - int64(codeBase+uint64(len(a)))
	a = encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 3},
		isa.Inst{Op: isa.OpJMP, Disp: int32(disp)},
	)
	if err := c.AS.WriteBytesForce(codeBase, a); err != nil {
		t.Fatal(err)
	}
	b := encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 7},
		isa.Inst{Op: isa.OpRET},
	)
	if err := c.AS.WriteBytesForce(bVA, b); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChainCrossPageLink: a direct branch to the next page links after
// the first execution and the link is actually followed.
func TestChainCrossPageLink(t *testing.T) {
	fullMode(t)
	c := crossPageMachine(t)
	if got := run(t, c); got != 7 {
		t.Fatalf("first run = %d, want 7", got)
	}
	hits0, _ := c.ChainStats()
	if got := run(t, c); got != 7 {
		t.Fatalf("second run = %d, want 7", got)
	}
	hits1, _ := c.ChainStats()
	if hits1 <= hits0 {
		t.Fatalf("cross-page exit not chained: link hits %d → %d", hits0, hits1)
	}
}

// TestChainInvalidatedByAliasWriteToSuccessor is the W^X hole test at
// link granularity: patch the *successor* frame through a writable alias
// — the predecessor's page is untouched, so only the link's own
// content-version guard can catch it — and verify no stale chained block
// executes.
func TestChainInvalidatedByAliasWriteToSuccessor(t *testing.T) {
	fullMode(t)
	c := crossPageMachine(t)
	for i := 0; i < 2; i++ { // second run warms the A→B link
		if got := run(t, c); got != 7 {
			t.Fatalf("original code = %d, want 7", got)
		}
	}
	if hits, _ := c.ChainStats(); hits == 0 {
		t.Fatal("link not warm before the alias write")
	}
	bVA := uint64(codeBase + mm.PageSize)
	frame, _, ok := c.AS.Lookup(bVA)
	if !ok {
		t.Fatal("successor page not mapped")
	}
	alias := mm.KernelBase + 0x930000
	if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.WriteBytes(alias, retImm(42)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 42 {
		t.Fatalf("patched successor = %d, want 42 (stale chained block executed)", got)
	}
}

// TestChainRemapKeepsBlocksWarm: a zero-copy remap (same frames, new VAs)
// must not rebuild any blocks — the block cache is frame-keyed — while
// links, which are VA-guarded, re-record at the new addresses and chain
// again.
func TestChainRemapKeepsBlocksWarm(t *testing.T) {
	fullMode(t)
	c := machine(t, loopCode(10))
	for i := 0; i < 2; i++ {
		if got := run(t, c); got != 55 {
			t.Fatalf("run %d = %d, want 55", i, got)
		}
	}
	newBase := uint64(mm.KernelBase + 0x940000)
	remap(t, c.AS, newBase, codeBase, 1)
	_, misses0 := c.BlockCacheStats()
	hits0, _ := c.ChainStats()
	// Two calls at the new base: the first re-records the links at the
	// new VAs, the second follows them.
	for i := 0; i < 2; i++ {
		if got, err := c.Call(newBase); err != nil || got != 55 {
			t.Fatalf("remapped run = (%d, %v), want 55", got, err)
		}
	}
	if _, misses1 := c.BlockCacheStats(); misses1 != misses0 {
		t.Fatalf("remap forced %d block rebuilds; frame-keyed cache should stay warm", misses1-misses0)
	}
	if hits1, _ := c.ChainStats(); hits1 <= hits0 {
		t.Fatal("remapped trace never chained again")
	}
}

// TestChainToUnmappedTargetFaults: once the successor's page is unmapped
// (a re-randomized-away module region), following the stale link must
// fault exactly like the dispatch path — the address-space generation
// guard sends the exit back through translation.
func TestChainToUnmappedTargetFaults(t *testing.T) {
	fullMode(t)
	c := crossPageMachine(t)
	for i := 0; i < 2; i++ {
		if got := run(t, c); got != 7 {
			t.Fatalf("warm run = %d, want 7", got)
		}
	}
	if hits, _ := c.ChainStats(); hits == 0 {
		t.Fatal("link not warm before the unmap")
	}
	bVA := uint64(codeBase + mm.PageSize)
	if err := c.AS.UnmapRegion(bVA, 1, false); err != nil {
		t.Fatal(err)
	}
	_, err := c.Call(codeBase)
	var pf *mm.PageFault
	if err == nil || !errors.As(err, &pf) {
		t.Fatalf("stale link did not fault: err=%v", err)
	}
	if pf.VA != bVA {
		t.Fatalf("fault at %#x, want the unmapped successor %#x", pf.VA, bVA)
	}
}

// TestChainNativeRegisteredInSuccessor: registering a native kernel
// entry point inside an already-linked successor must retire the link
// (native-table generation) — the successor's frame bytes never changed,
// so the content-version guard alone would let the stale block run
// through the new entry point.
func TestChainNativeRegisteredInSuccessor(t *testing.T) {
	c := crossPageMachine(t)
	for i := 0; i < 2; i++ {
		if got := run(t, c); got != 7 {
			t.Fatalf("warm run = %d, want 7", got)
		}
	}
	bVA := uint64(codeBase + mm.PageSize)
	c.RegisterNative(bVA, &Native{
		Name: "late", Cost: 1,
		Fn: func(c *CPU) error {
			c.Regs[isa.RAX] = 500
			return nil
		},
	})
	if got := run(t, c); got != 500 {
		t.Fatalf("post-native run = %d, want 500 (stale chain bypassed the native)", got)
	}
}

// TestChainBoundedByInstructionBudget: an infinite loop of linked blocks
// must still trip Run's instruction budget — chains are bounded, so the
// dispatch loop (and with it the engine's clock boundary) keeps firing.
func TestChainBoundedByInstructionBudget(t *testing.T) {
	fullMode(t)
	// A single-instruction block that jumps to itself: JMP disp -5
	// (its own length) links to its own superblock.
	c := machine(t, []isa.Inst{{Op: isa.OpJMP, Disp: -5}})
	if err := c.Push(HostReturn); err != nil {
		t.Fatal(err)
	}
	c.RIP = codeBase
	err := c.Run(10_000)
	if err == nil {
		t.Fatal("runaway linked loop did not trip the instruction budget")
	}
	if hits, _ := c.ChainStats(); hits == 0 {
		t.Fatal("self-loop never chained; budget test exercised nothing")
	}
}

// TestChainDeterministic: two fresh vCPUs on the same address space must
// retire identical block, link and cycle counts — trace linking is
// per-vCPU state evolving deterministically.
func TestChainDeterministic(t *testing.T) {
	c1 := machine(t, loopCode(50))
	run(t, c1)
	run(t, c1)
	c2 := New(1, c1.AS)
	c2.Regs[isa.RSP] = stackTop
	if got, err := c2.Call(codeBase); err != nil || got != 1275 {
		t.Fatalf("second vCPU = (%d, %v)", got, err)
	}
	if _, err := c2.Call(codeBase); err != nil {
		t.Fatal(err)
	}
	if c1.Cycles != c2.Cycles || c1.Blocks != c2.Blocks || c1.ChainedBlocks != c2.ChainedBlocks {
		t.Fatalf("vCPUs diverge: (%d cycles, %d blocks, %d chained) vs (%d, %d, %d)",
			c1.Cycles, c1.Blocks, c1.ChainedBlocks, c2.Cycles, c2.Blocks, c2.ChainedBlocks)
	}
}
