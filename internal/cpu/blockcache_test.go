package cpu

import (
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// encode assembles a sequence of instructions.
func encode(code ...isa.Inst) []byte {
	var buf []byte
	for _, in := range code {
		buf = in.Append(buf)
	}
	return buf
}

// retImm is a tiny function returning imm.
func retImm(imm int64) []byte {
	return encode(
		isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: imm},
		isa.Inst{Op: isa.OpRET},
	)
}

// Block-cache tests: the per-vCPU cache of decoded superblocks is keyed
// by frame and validated by the frame's content version, so patched code
// always runs its new bytes, revoked code always faults, and code moved
// by a zero-copy remap stays decoded.

// remap maps the frames behind npages pages at oldBase again at newBase,
// each with its own flags: a zero-copy module move, as the kernel's
// re-randomization step makes one (Lookup + Map per page).
func remap(t *testing.T, as *mm.AddressSpace, newBase, oldBase uint64, npages int) {
	t.Helper()
	for i := uint64(0); i < uint64(npages); i++ {
		frame, flags, ok := as.Lookup(oldBase + i*mm.PageSize)
		if !ok {
			t.Fatalf("source page %#x not mapped", oldBase+i*mm.PageSize)
		}
		if err := as.Map(newBase+i*mm.PageSize, frame, flags); err != nil {
			t.Fatal(err)
		}
	}
}

// warmRuns runs the code at codeBase twice, expecting want, so the second
// run reuses the cached block (through the dispatch entry cache, or a
// block-cache hit with chaining off), and returns the cache's miss count.
func warmRuns(t *testing.T, c *CPU, want uint64) uint64 {
	t.Helper()
	for i := 0; i < 2; i++ {
		if got := run(t, c); got != want {
			t.Fatalf("run %d = %d, want %d", i, got, want)
		}
	}
	hits, misses := c.BlockCacheStats()
	if misses != 1 || hits+c.ChainedBlocks == 0 {
		t.Fatalf("block cache not warm: %d hits, %d misses, %d chained", hits, misses, c.ChainedBlocks)
	}
	return misses
}

// rebuilt fails unless the block cache missed since it read misses0: the
// patched code was decoded again, not served stale.
func rebuilt(t *testing.T, c *CPU, misses0 uint64) {
	t.Helper()
	if _, misses := c.BlockCacheStats(); misses == misses0 {
		t.Fatal("patched code ran without a block rebuild")
	}
}

// TestDecodeCacheHitsOnStraightLineCode verifies the block cache itself
// serves re-execution: with chaining off there is no dispatch entry cache
// to lean on, so the second run must be a block-cache hit, not a rebuild.
func TestDecodeCacheHitsOnStraightLineCode(t *testing.T) {
	was := SetChaining(false)
	defer SetChaining(was)
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 7},
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != 7 {
		t.Fatalf("first run = %d", got)
	}
	hits0, misses0 := c.BlockCacheStats()
	if got := run(t, c); got != 7 {
		t.Fatalf("second run = %d", got)
	}
	hits1, misses1 := c.BlockCacheStats()
	if hits1 <= hits0 {
		t.Fatalf("second run was not served from the block cache: hits %d → %d", hits0, hits1)
	}
	if misses1 != misses0 {
		t.Fatalf("second run rebuilt blocks: misses %d → %d", misses0, misses1)
	}
	if c.ChainedBlocks != 0 {
		t.Fatalf("chaining off, yet %d blocks were chained", c.ChainedBlocks)
	}
}

// TestDecodeCacheInvalidatedByAliasWrite is the W^X hole test: map the
// code frame a second time with write permission, patch the code through
// the alias, and verify the vCPU executes the new bytes — a stale cached
// block must never run.
func TestDecodeCacheInvalidatedByAliasWrite(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpRET},
	})
	misses := warmRuns(t, c, 1)

	frame, _, ok := c.AS.Lookup(codeBase)
	if !ok {
		t.Fatal("code page not mapped")
	}
	alias := mm.KernelBase + 0x900000
	if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	// An ordinary permission-checked write through the writable alias.
	if err := c.AS.WriteBytes(alias, retImm(2)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 2 {
		t.Fatalf("patched code = %d, want 2 (stale block executed)", got)
	}
	rebuilt(t, c, misses)
}

// TestDecodeCacheInvalidatedByStore64Alias repeats the W^X hole through
// the CPU's own store path (interpreted guest stores, not host writes).
func TestDecodeCacheInvalidatedByStore64Alias(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpRET},
	})
	misses := warmRuns(t, c, 1)
	frame, _, ok := c.AS.Lookup(codeBase)
	if !ok {
		t.Fatal("code page not mapped")
	}
	alias := mm.KernelBase + 0x910000
	if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	patch := retImm(3)
	for len(patch) < 8 {
		patch = append(patch, byte(isa.OpNOP))
	}
	var word uint64
	for i := 7; i >= 0; i-- {
		word = word<<8 | uint64(patch[i])
	}
	if err := c.store64(alias, word); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 3 {
		t.Fatalf("patched code = %d, want 3 (stale block executed)", got)
	}
	rebuilt(t, c, misses)
}

// TestDecodeCacheInvalidatedByForceWrite covers the loader/re-randomizer
// patching path (WriteBytesForce on already-executable text).
func TestDecodeCacheInvalidatedByForceWrite(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpRET},
	})
	misses := warmRuns(t, c, 1)
	if err := c.AS.WriteBytesForce(codeBase, retImm(4)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 4 {
		t.Fatalf("patched code = %d, want 4 (stale block executed)", got)
	}
	rebuilt(t, c, misses)
}

// TestProtectRevokesExecutionDespiteWarmCache: dropping exec permission
// must stop execution even though the block cache still holds the page.
func TestProtectRevokesExecutionDespiteWarmCache(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpRET},
	})
	warmRuns(t, c, 1)
	if err := c.AS.Protect(codeBase, 0); err != nil { // read-only, NX
		t.Fatal(err)
	}
	if _, err := c.Call(codeBase); err == nil {
		t.Fatal("execution succeeded on an NX page with a warm block cache")
	}
}

// TestUnmapRevokesExecutionDespiteWarmCache: unmapping the page (the
// re-randomizer's delayed teardown) must fault despite cached blocks.
func TestUnmapRevokesExecutionDespiteWarmCache(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpRET},
	})
	warmRuns(t, c, 1)
	if _, err := c.AS.Unmap(codeBase); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(codeBase); err == nil {
		t.Fatal("execution succeeded on an unmapped page with a warm block cache")
	}
}

// TestRemapKeepsDecodeWarm: a zero-copy remap of a two-page module (same
// frames, new VA) must not force a re-decode of either page, including
// the instruction that straddles the page boundary — the cache is keyed
// by frame, mirroring the paper's moves never copying module text.
func TestRemapKeepsDecodeWarm(t *testing.T) {
	var code []isa.Inst
	for i := 0; i < mm.PageSize-3; i++ {
		code = append(code, isa.Inst{Op: isa.OpNOP})
	}
	want := uint64(0x0123_4567_89AB_CDEF)
	code = append(code,
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RAX, Imm: int64(want)},
		isa.Inst{Op: isa.OpRET},
	)
	c := machine(t, code)
	if got := run(t, c); got != want {
		t.Fatalf("original code = %#x, want %#x", got, want)
	}
	newBase := mm.KernelBase + 0x920000
	remap(t, c.AS, newBase, codeBase, 2)
	_, misses0 := c.BlockCacheStats()
	if got, err := c.Call(newBase); err != nil || got != want {
		t.Fatalf("remapped code = (%#x, %v), want %#x", got, err, want)
	}
	if _, misses1 := c.BlockCacheStats(); misses1 != misses0 {
		t.Fatalf("remap forced %d re-decodes; frame-keyed cache should stay warm", misses1-misses0)
	}
}

// TestStraddleFetch executes an instruction split across a page boundary
// (the fetch path's two-frame splice) and verifies it decodes correctly
// and repeatedly.
func TestStraddleFetch(t *testing.T) {
	// Fill page 0 with NOPs up to 3 bytes before its end, place a 10-byte
	// MOVABS straddling into page 1, then RET.
	var code []isa.Inst
	nops := mm.PageSize - 3
	for i := 0; i < nops; i++ {
		code = append(code, isa.Inst{Op: isa.OpNOP})
	}
	want := uint64(0xDEAD_BEEF_0BAD_F00D)
	code = append(code,
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RAX, Imm: int64(want)},
		isa.Inst{Op: isa.OpRET},
	)
	c := machine(t, code)
	for i := 0; i < 2; i++ { // second pass runs with a warm NOP page
		if got := run(t, c); got != want {
			t.Fatalf("pass %d: straddling MOVABS = %#x, want %#x", i, got, want)
		}
	}
}
