package cpu

import (
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// Indirect-target-cache tests: a RET/indirect exit re-follows its last
// resolved successor when the dynamic target matches, validated exactly
// like a direct link. See superblock.go.

// indirectOff runs f with the indirect target cache disabled (direct
// links stay on) for CPUs created inside.
func indirectOff(t *testing.T, f func()) {
	t.Helper()
	was := SetIndirect(false)
	defer SetIndirect(was)
	f()
}

// callLoopMachine lays out a call-return loop — the shape every wrapper
// and retpoline-heavy module path has:
//
//	main: MOVI RCX, n
//	loop: CALL f          ← direct exit
//	      ADD  RAX, RCX   ← RET's monomorphic return target
//	      SUBI RCX, 1
//	      CMPI RCX, 0
//	      JNE  loop
//	      RET
//	f:    MOVI RBX, 9
//	      RET             ← indirect exit, same target every iteration
//
// Call(codeBase) returns sum n..1. f sits at codeBase+0x200 so caller
// and callee blocks share one page (same-frame links).
func callLoopMachine(t *testing.T, n int64) *CPU {
	t.Helper()
	c := machine(t, []isa.Inst{{Op: isa.OpNOP}})
	fVA := uint64(codeBase + 0x200)
	lenOf := func(in isa.Inst) int { return len(encode(in)) }
	pre := lenOf(isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0}) +
		lenOf(isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: n})
	callLen := lenOf(isa.Inst{Op: isa.OpCALL})
	loopLen := callLen +
		lenOf(isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX}) +
		lenOf(isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1}) +
		lenOf(isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0}) +
		lenOf(isa.Inst{Op: isa.OpJNE})
	callDisp := int64(fVA) - int64(codeBase+uint64(pre+callLen))
	code := encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: n},
		isa.Inst{Op: isa.OpCALL, Disp: int32(callDisp)},
		isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0},
		isa.Inst{Op: isa.OpJNE, Disp: int32(-loopLen)},
		isa.Inst{Op: isa.OpRET},
	)
	if err := c.AS.WriteBytesForce(codeBase, code); err != nil {
		t.Fatal(err)
	}
	f := encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 9},
		isa.Inst{Op: isa.OpRET},
	)
	if err := c.AS.WriteBytesForce(fVA, f); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIndirectCacheChainsCallRetLoop: the hot call-return loop must
// follow the monomorphic RET link (IndirectChained > 0) and produce
// cycle/instruction accounting bit-identical to both the indirect-off
// and fully-unchained modes — the three-mode contract at unit scale.
func TestIndirectCacheChainsCallRetLoop(t *testing.T) {
	fullMode(t)
	const n, want = 40, 40 * 41 / 2
	full := callLoopMachine(t, n)
	for i := 0; i < 2; i++ {
		if got := run(t, full); got != want {
			t.Fatalf("run %d = %d, want %d", i, got, want)
		}
	}
	if full.IndirectChained == 0 {
		t.Fatal("hot RET exit never chained through the indirect cache")
	}
	if full.IndirectChained > full.ChainedBlocks {
		t.Fatalf("IndirectChained %d > ChainedBlocks %d", full.IndirectChained, full.ChainedBlocks)
	}

	var direct *CPU
	indirectOff(t, func() {
		direct = callLoopMachine(t, n)
		for i := 0; i < 2; i++ {
			if got := run(t, direct); got != want {
				t.Fatalf("indirect-off run %d = %d, want %d", i, got, want)
			}
		}
	})
	if direct.IndirectChained != 0 {
		t.Fatalf("indirect-off vCPU followed %d indirect links", direct.IndirectChained)
	}
	if direct.ChainedBlocks == 0 {
		t.Fatal("indirect-off mode must keep direct links on")
	}

	var unchained *CPU
	chainOff(t, func() {
		unchained = callLoopMachine(t, n)
		for i := 0; i < 2; i++ {
			if got := run(t, unchained); got != want {
				t.Fatalf("unchained run %d = %d, want %d", i, got, want)
			}
		}
	})

	for _, m := range []struct {
		name string
		c    *CPU
	}{{"indirect-off", direct}, {"unchained", unchained}} {
		if full.Cycles != m.c.Cycles || full.Insts != m.c.Insts || full.Blocks != m.c.Blocks {
			t.Errorf("full (%d cycles, %d insts, %d blocks) != %s (%d, %d, %d)",
				full.Cycles, full.Insts, full.Blocks, m.name, m.c.Cycles, m.c.Insts, m.c.Blocks)
		}
	}
}

// TestIndirectCacheMonomorphicMiss: a RET alternating between two return
// sites keeps only the newest target cached — each flip is a mismatch
// that re-resolves through the dispatch path — and accounting still
// matches unchained execution exactly.
func TestIndirectCacheMonomorphicMiss(t *testing.T) {
	build := func() *CPU {
		c := machine(t, []isa.Inst{{Op: isa.OpNOP}})
		fVA := uint64(codeBase + 0x200)
		lenOf := func(in isa.Inst) int { return len(encode(in)) }
		callLen := lenOf(isa.Inst{Op: isa.OpCALL})
		movLen := lenOf(isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0})
		// Two call sites to the same f: RET's target alternates.
		d1 := int64(fVA) - int64(codeBase+uint64(callLen))
		d2 := int64(fVA) - int64(codeBase+uint64(callLen+movLen+callLen))
		code := encode(
			isa.Inst{Op: isa.OpCALL, Disp: int32(d1)},
			isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
			isa.Inst{Op: isa.OpCALL, Disp: int32(d2)},
			isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 3},
			isa.Inst{Op: isa.OpRET},
		)
		if err := c.AS.WriteBytesForce(codeBase, code); err != nil {
			t.Fatal(err)
		}
		if err := c.AS.WriteBytesForce(fVA, encode(
			isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 9},
			isa.Inst{Op: isa.OpRET},
		)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	full := build()
	for i := 0; i < 4; i++ {
		if got := run(t, full); got != 3 {
			t.Fatalf("run %d = %d, want 3", i, got)
		}
	}
	var unchained *CPU
	chainOff(t, func() {
		unchained = build()
		for i := 0; i < 4; i++ {
			if got := run(t, unchained); got != 3 {
				t.Fatalf("unchained run %d = %d, want 3", i, got)
			}
		}
	})
	if full.Cycles != unchained.Cycles || full.Insts != unchained.Insts || full.Blocks != unchained.Blocks {
		t.Fatalf("flip-flop targets: full (%d cycles, %d insts, %d blocks) != unchained (%d, %d, %d)",
			full.Cycles, full.Insts, full.Blocks, unchained.Cycles, unchained.Insts, unchained.Blocks)
	}
}

// retpolineMachine lays out a call-loop whose CALL goes through a
// retpoline-style thunk (PUSH reg; RET — the kcc shape): the thunk's RET
// "returns" into the *callee*, so the indirect cache is what chains the
// thunk→callee edge, exactly the case the tentpole targets.
func retpolineMachine(t *testing.T, n int64) (*CPU, uint64) {
	t.Helper()
	c := machine(t, []isa.Inst{{Op: isa.OpNOP}})
	thunkVA := uint64(codeBase + 0x180)
	fVA := uint64(codeBase + 0x200)
	lenOf := func(in isa.Inst) int { return len(encode(in)) }
	pre := lenOf(isa.Inst{Op: isa.OpMOVABS, R1: isa.RDI, Imm: 0}) +
		lenOf(isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0}) +
		lenOf(isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: n})
	callLen := lenOf(isa.Inst{Op: isa.OpCALL})
	loopLen := callLen +
		lenOf(isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX}) +
		lenOf(isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1}) +
		lenOf(isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0}) +
		lenOf(isa.Inst{Op: isa.OpJNE})
	thunkDisp := int64(thunkVA) - int64(codeBase+uint64(pre+callLen))
	code := encode(
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RDI, Imm: int64(fVA)},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: n},
		isa.Inst{Op: isa.OpCALL, Disp: int32(thunkDisp)},
		isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0},
		isa.Inst{Op: isa.OpJNE, Disp: int32(-loopLen)},
		isa.Inst{Op: isa.OpRET},
	)
	if err := c.AS.WriteBytesForce(codeBase, code); err != nil {
		t.Fatal(err)
	}
	thunk := encode(
		isa.Inst{Op: isa.OpPUSH, R1: isa.RDI},
		isa.Inst{Op: isa.OpRET},
	)
	if err := c.AS.WriteBytesForce(thunkVA, thunk); err != nil {
		t.Fatal(err)
	}
	f := encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 9},
		isa.Inst{Op: isa.OpRET},
	)
	if err := c.AS.WriteBytesForce(fVA, f); err != nil {
		t.Fatal(err)
	}
	return c, fVA
}

// TestIndirectCacheChainsRetpolineThunk: the thunk's RET must chain into
// the callee via the indirect cache, with accounting identical to the
// unchained run.
func TestIndirectCacheChainsRetpolineThunk(t *testing.T) {
	fullMode(t)
	const n, want = 30, 30 * 31 / 2
	full, _ := retpolineMachine(t, n)
	for i := 0; i < 2; i++ {
		if got := run(t, full); got != want {
			t.Fatalf("run %d = %d, want %d", i, got, want)
		}
	}
	if full.IndirectChained == 0 {
		t.Fatal("retpoline thunk RET never chained through the indirect cache")
	}
	var unchained *CPU
	chainOff(t, func() {
		var c *CPU
		c, _ = retpolineMachine(t, n)
		for i := 0; i < 2; i++ {
			if got := run(t, c); got != want {
				t.Fatalf("unchained run %d = %d, want %d", i, got, want)
			}
		}
		unchained = c
	})
	if full.Cycles != unchained.Cycles || full.Insts != unchained.Insts || full.Blocks != unchained.Blocks {
		t.Fatalf("retpoline: full (%d cycles, %d insts, %d blocks) != unchained (%d, %d, %d)",
			full.Cycles, full.Insts, full.Blocks, unchained.Cycles, unchained.Insts, unchained.Blocks)
	}
}

// TestIndirectStaleAcrossRemapEpoch: after a zero-copy remap (same
// frames, new VAs — the rerand move), the cached indirect successor's
// address-space generation is stale. The thunk must re-resolve the new
// return target through the dispatch path — never execute the stale
// block — and then chain again at the new addresses.
func TestIndirectStaleAcrossRemapEpoch(t *testing.T) {
	fullMode(t)
	c := callLoopMachine(t, 10)
	for i := 0; i < 2; i++ {
		if got := run(t, c); got != 55 {
			t.Fatalf("warm run = %d, want 55", got)
		}
	}
	if c.IndirectChained == 0 {
		t.Fatal("indirect link not warm before the remap")
	}
	newBase := uint64(mm.KernelBase + 0x950000)
	remap(t, c.AS, newBase, codeBase, 1)
	_, misses0 := c.BlockCacheStats()
	i0 := c.IndirectChained
	for i := 0; i < 2; i++ {
		if got, err := c.Call(newBase); err != nil || got != 55 {
			t.Fatalf("remapped run = (%d, %v), want 55", got, err)
		}
	}
	if _, misses1 := c.BlockCacheStats(); misses1 != misses0 {
		t.Fatalf("remap forced %d block rebuilds; frame-keyed cache should stay warm", misses1-misses0)
	}
	if c.IndirectChained <= i0 {
		t.Fatal("remapped trace never chained indirectly again")
	}
}

// TestIndirectInvalidatedByAliasWriteToSuccessor: patch the indirectly
// linked successor's frame through a writable alias — the RET block's
// own page is untouched, so only the link's content-version guard can
// catch it — and verify no stale chained block executes.
func TestIndirectInvalidatedByAliasWriteToSuccessor(t *testing.T) {
	fullMode(t)
	// Successor on its own page so the alias write cannot also
	// invalidate the RET block's page.
	c := machine(t, []isa.Inst{{Op: isa.OpNOP}})
	fVA := uint64(codeBase + 0x80)
	succVA := uint64(codeBase + mm.PageSize) // B: RET's return target page
	lenOf := func(in isa.Inst) int { return len(encode(in)) }
	callLen := lenOf(isa.Inst{Op: isa.OpCALL})
	// main: CALL f.   succ (next page): MOVI RAX, imm; RET
	d1 := int64(fVA) - int64(codeBase+uint64(callLen))
	if err := c.AS.WriteBytesForce(codeBase, encode(
		isa.Inst{Op: isa.OpCALL, Disp: int32(d1)},
	)); err != nil {
		t.Fatal(err)
	}
	// f discards the pushed return address and RETs straight into the
	// successor page, so the RET itself is the cross-page indirect edge.
	if err := c.AS.WriteBytesForce(fVA, encode(
		isa.Inst{Op: isa.OpPOP, R1: isa.RBX},
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RDX, Imm: int64(succVA)},
		isa.Inst{Op: isa.OpPUSH, R1: isa.RDX},
		isa.Inst{Op: isa.OpRET},
	)); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.WriteBytesForce(succVA, retImm(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second run warms the RET→succ link
		if got := run(t, c); got != 7 {
			t.Fatalf("original code = %d, want 7", got)
		}
	}
	if c.IndirectChained == 0 {
		t.Fatal("indirect link not warm before the alias write")
	}
	frame, _, ok := c.AS.Lookup(succVA)
	if !ok {
		t.Fatal("successor page not mapped")
	}
	alias := mm.KernelBase + 0x960000
	if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.WriteBytes(alias, retImm(42)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 42 {
		t.Fatalf("patched successor = %d, want 42 (stale indirectly chained block executed)", got)
	}
}

// TestIndirectTwoVCPUDeterminism: two fresh vCPUs over the same address
// space must retire identical block/chain/indirect/cycle counts — the
// indirect cache is per-vCPU state evolving deterministically (run with
// -race: the block caches must never share mutable state across vCPUs).
func TestIndirectTwoVCPUDeterminism(t *testing.T) {
	fullMode(t)
	c1 := callLoopMachine(t, 50)
	run(t, c1)
	run(t, c1)
	c2 := New(1, c1.AS)
	c2.Regs[isa.RSP] = stackTop
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			if got, err := c2.Call(codeBase); err != nil || got != 1275 {
				t.Errorf("second vCPU = (%d, %v), want 1275", got, err)
			}
		}
	}()
	<-done
	if c1.Cycles != c2.Cycles || c1.Blocks != c2.Blocks ||
		c1.ChainedBlocks != c2.ChainedBlocks || c1.IndirectChained != c2.IndirectChained {
		t.Fatalf("vCPUs diverge: (%d cycles, %d blocks, %d chained, %d indirect) vs (%d, %d, %d, %d)",
			c1.Cycles, c1.Blocks, c1.ChainedBlocks, c1.IndirectChained,
			c2.Cycles, c2.Blocks, c2.ChainedBlocks, c2.IndirectChained)
	}
	if c1.IndirectChained == 0 {
		t.Fatal("no indirect links followed; determinism test exercised nothing")
	}
}
