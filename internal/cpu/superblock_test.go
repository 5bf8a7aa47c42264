package cpu

import (
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// TestSuperblockRetiresWholeBlocks: straight-line code followed by RET is
// one basic block; re-execution must be served from the block cache and
// the Blocks counter must advance once per block, not per instruction.
func TestSuperblockRetiresWholeBlocks(t *testing.T) {
	fullMode(t)
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 3},
		{Op: isa.OpMOVI, R1: isa.RBX, Imm: 4},
		{Op: isa.OpADD, R1: isa.RAX, R2: isa.RBX},
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != 7 {
		t.Fatalf("first run = %d, want 7", got)
	}
	if c.Blocks != 1 {
		t.Fatalf("blocks retired = %d, want 1", c.Blocks)
	}
	if c.Insts != 4 {
		t.Fatalf("instructions retired = %d, want 4", c.Insts)
	}
	_, misses0 := c.BlockCacheStats()
	chained0 := c.ChainedBlocks
	if got := run(t, c); got != 7 {
		t.Fatalf("second run = %d, want 7", got)
	}
	if c.ChainedBlocks <= chained0 {
		t.Fatal("second run did not re-enter the cached block via the entry cache")
	}
	if _, misses1 := c.BlockCacheStats(); misses1 != misses0 {
		t.Fatalf("second run rebuilt blocks: misses %d → %d", misses0, misses1)
	}
}

// TestSuperblockLoopSemantics: a backward conditional branch terminates
// each block; the loop must execute the same number of instructions as
// single-stepping would.
func TestSuperblockLoopSemantics(t *testing.T) {
	code := []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		{Op: isa.OpMOVI, R1: isa.RCX, Imm: 10},
		// loop:
		{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX},
		{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0},
		{Op: isa.OpJNE, Disp: -19},
		{Op: isa.OpRET},
	}
	blockCPU := machine(t, code)
	if got := run(t, blockCPU); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	// Reference execution through the single-step path.
	stepCPU := machine(t, code)
	stepCPU.Regs[isa.RSP] = stackTop
	if err := stepCPU.Push(HostReturn); err != nil {
		t.Fatal(err)
	}
	stepCPU.RIP = codeBase
	for {
		halted, err := stepCPU.Step()
		if err != nil {
			t.Fatal(err)
		}
		if halted {
			break
		}
	}
	if stepCPU.Regs[isa.RAX] != 55 {
		t.Fatalf("step path sum = %d", stepCPU.Regs[isa.RAX])
	}
	if blockCPU.Insts != stepCPU.Insts {
		t.Fatalf("block path retired %d insts, step path %d", blockCPU.Insts, stepCPU.Insts)
	}
	if blockCPU.Cycles != stepCPU.Cycles {
		t.Fatalf("block path charged %d cycles, step path %d", blockCPU.Cycles, stepCPU.Cycles)
	}
}

// TestSuperblockInvalidatedByAliasWrite is the W^X hole test at block
// granularity: patch the code frame through a writable alias mapping and
// verify no stale cached block executes.
func TestSuperblockInvalidatedByAliasWrite(t *testing.T) {
	fullMode(t)
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpRET},
	})
	for i := 0; i < 2; i++ { // second run warms the caches
		if got := run(t, c); got != 1 {
			t.Fatalf("original code = %d, want 1", got)
		}
	}
	if c.ChainedBlocks == 0 {
		t.Fatal("caches not warm before the alias write")
	}
	frame, _, ok := c.AS.Lookup(codeBase)
	if !ok {
		t.Fatal("code page not mapped")
	}
	alias := mm.KernelBase + 0x930000
	if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.WriteBytes(alias, retImm(8)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 8 {
		t.Fatalf("patched code = %d, want 8 (stale superblock executed)", got)
	}
}

// TestSuperblockRemapKeepsBlocksWarm: a zero-copy remap (same frames,
// new VA) must not force a block rebuild — the cache is keyed by frame.
func TestSuperblockRemapKeepsBlocksWarm(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 6},
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != 6 {
		t.Fatalf("original code = %d", got)
	}
	newBase := mm.KernelBase + 0x940000
	remap(t, c.AS, newBase, codeBase, 1)
	_, misses0 := c.BlockCacheStats()
	if got, err := c.Call(newBase); err != nil || got != 6 {
		t.Fatalf("remapped code = (%d, %v), want 6", got, err)
	}
	if _, misses1 := c.BlockCacheStats(); misses1 != misses0 {
		t.Fatalf("remap forced %d block rebuilds; frame-keyed cache should stay warm", misses1-misses0)
	}
}

// TestSuperblockStopsAtNativeEntry: straight-line code that falls
// through onto a registered native address must dispatch the native, not
// decode the bytes that happen to live there.
func TestSuperblockStopsAtNativeEntry(t *testing.T) {
	// Decodable bytes live at the native address: if block building ran
	// past the entry point it would execute them and return 999.
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RBX, Imm: 5},
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 999},
		{Op: isa.OpRET},
	})
	head := encode(isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 5})
	c.RegisterNative(codeBase+uint64(len(head)), &Native{
		Name: "sentinel", Cost: 1,
		Fn: func(c *CPU) error {
			c.Regs[isa.RAX] = c.Regs[isa.RBX] * 100
			return nil
		},
	})
	if got := run(t, c); got != 500 {
		t.Fatalf("fall-through native = %d, want 500", got)
	}
}

// TestRegisterNativeInvalidatesCachedBlocks: registering a native at a
// VA interior to an already-cached block must drop the block — the
// frame's content never changed, so only explicit invalidation keeps
// the cached decode from running through the new entry point.
func TestRegisterNativeInvalidatesCachedBlocks(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RBX, Imm: 5},
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 999},
		{Op: isa.OpRET},
	})
	// Warm the block cache on the plain three-instruction block.
	if got := run(t, c); got != 999 {
		t.Fatalf("pre-native run = %d, want 999", got)
	}
	head := encode(isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 5})
	c.RegisterNative(codeBase+uint64(len(head)), &Native{
		Name: "late", Cost: 1,
		Fn: func(c *CPU) error {
			c.Regs[isa.RAX] = c.Regs[isa.RBX] * 100
			return nil
		},
	})
	if got := run(t, c); got != 500 {
		t.Fatalf("post-native run = %d, want 500 (stale block ran through the native)", got)
	}
}

// TestUnbuildableEntryNegativelyCached: an entry PC that cannot start a
// block (straddling instruction) must not re-attempt the block build on
// every execution — after the first attempt it is a cache hit that goes
// straight to the single-step fallback.
func TestUnbuildableEntryNegativelyCached(t *testing.T) {
	var code []isa.Inst
	for i := 0; i < mm.PageSize-3; i++ {
		code = append(code, isa.Inst{Op: isa.OpNOP})
	}
	code = append(code,
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RAX, Imm: 42}, // straddles pages 0→1
		isa.Inst{Op: isa.OpRET},
	)
	c := machine(t, code)
	for i := 0; i < 2; i++ {
		if got := run(t, c); got != 42 {
			t.Fatalf("pass %d = %d, want 42", i, got)
		}
	}
	_, misses0 := c.BlockCacheStats()
	if got := run(t, c); got != 42 {
		t.Fatalf("warm pass = %d, want 42", got)
	}
	if _, misses1 := c.BlockCacheStats(); misses1 != misses0 {
		t.Fatalf("straddling entry rebuilt %d times on a warm cache", misses1-misses0)
	}
}

// TestStepBypassesBlockCache: Step decodes each instruction straight
// from the frame bytes. It neither consults nor fills the block cache,
// and it runs patched bytes at once.
func TestStepBypassesBlockCache(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 2},
		{Op: isa.OpRET},
	})
	for i, want := range []uint64{2, 2, 5} {
		if i == 2 {
			if err := c.AS.WriteBytesForce(codeBase, retImm(5)); err != nil {
				t.Fatal(err)
			}
		}
		if err := execute(c, true); err != nil {
			t.Fatal(err)
		}
		if got := c.Regs[isa.RAX]; got != want {
			t.Fatalf("step run %d = %d, want %d", i, got, want)
		}
	}
	if hits, misses := c.BlockCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("Step touched the block cache: %d hits, %d misses", hits, misses)
	}
}

// TestGuestTLBOverflowDeterministic overflows DefaultTLBSize from guest
// code and requires two fresh vCPUs on the same address space to charge
// identical cycle counts — the determinism bug the FIFO eviction fixes.
func TestGuestTLBOverflowDeterministic(t *testing.T) {
	const npages = mm.DefaultTLBSize + 64
	bigBase := uint64(mm.KernelBase + 0x10_000000)
	// scan: walk one load per page over the whole region, twice, so the
	// second sweep's hit/miss pattern depends on which pages eviction
	// kept — the run-to-run variance random eviction used to cause.
	scan := []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RDX, Imm: 2},
		// pass:
		{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(bigBase)},
		{Op: isa.OpMOVI, R1: isa.RCX, Imm: npages},
		// loop:
		{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RBX},
		{Op: isa.OpADDI, R1: isa.RBX, Imm: mm.PageSize},
		{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0},
		{Op: isa.OpJNE, Disp: -29}, // back to LOAD (6+6+6+6+5)
		{Op: isa.OpSUBI, R1: isa.RDX, Imm: 1},
		{Op: isa.OpCMPI, R1: isa.RDX, Imm: 0},
		{Op: isa.OpJNE, Disp: -62}, // back to MOVABS (10+6+29+6+6+5)
		{Op: isa.OpRET},
	}
	as := mm.NewAddressSpace(mm.NewPhysMem())
	if _, err := as.MapRegion(codeBase, 1, mm.FlagExec); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapRegion(stackBase, stackPgs, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapRegion(bigBase, npages, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytesForce(codeBase, encode(scan...)); err != nil {
		t.Fatal(err)
	}
	runScan := func(id int) (cycles, misses uint64) {
		c := New(id, as)
		c.Regs[isa.RSP] = stackTop
		if _, err := c.Call(codeBase); err != nil {
			t.Fatal(err)
		}
		_, m, _ := c.TLB.Stats()
		return c.Cycles, m
	}
	cyc1, m1 := runScan(0)
	cyc2, m2 := runScan(1)
	if cyc1 != cyc2 {
		t.Fatalf("per-vCPU cycles differ across identical runs: %d vs %d", cyc1, cyc2)
	}
	if m1 != m2 {
		t.Fatalf("TLB miss counts differ across identical runs: %d vs %d", m1, m2)
	}
	if m1 < npages+mm.DefaultTLBSize/2 {
		t.Fatalf("scan did not thrash the TLB (misses=%d)", m1)
	}
}
