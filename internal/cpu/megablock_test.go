package cpu

import (
	"errors"
	"fmt"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// Loop-trace tests: a hot loop of linked blocks runs as one executor
// pass, a trace with a back edge from the loop's last block to its
// first, and every counter, sample and fault shape is what per-block
// chaining gives. The tests keep the name of the loop megablocks that traces replaced.
// See superblock.go.

// asm assembles AK64 code with labels for branch targets. Encoded lengths
// do not depend on displacements, so one layout pass resolves them.
type asm struct {
	code   []isa.Inst
	labels map[string]int // label → index of the instruction it marks
	fix    map[int]string // branch index → target label
}

func newAsm() *asm { return &asm{labels: map[string]int{}, fix: map[int]string{}} }

func (a *asm) ins(in ...isa.Inst)        { a.code = append(a.code, in...) }
func (a *asm) label(name string)         { a.labels[name] = len(a.code) }
func (a *asm) br(op isa.Op, name string) { a.fix[len(a.code)] = name; a.ins(isa.Inst{Op: op}) }

// offset returns the byte offset of instruction i.
func (a *asm) offset(i int) int { return len(encode(a.code[:i]...)) }

// build resolves the branch displacements and returns the code.
func (a *asm) build() []isa.Inst {
	for i, name := range a.fix {
		a.code[i].Disp = int32(a.offset(a.labels[name]) - a.offset(i+1))
	}
	return a.code
}

// scanLoop is ext4_get_block's extent scan as a two-block cycle: A loads
// a word and leaves through JB when rsi is below it, B runs seven ALU and
// load instructions and branches back to A while rcx counts down from n.
// The data is zero and rsi is 0, so the JB is never taken; RAX ends 0.
func scanLoop(n int64) []isa.Inst {
	a := newAsm()
	a.ins(isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: n},
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(dataBase)},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RSI, Imm: 0})
	a.label("scan")
	a.ins(isa.Inst{Op: isa.OpLOAD, R1: isa.R12, R2: isa.RBX},
		isa.Inst{Op: isa.OpCMP, R1: isa.RSI, R2: isa.R12})
	a.br(isa.OpJB, "done")
	a.ins(isa.Inst{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RBX, Disp: 8},
		isa.Inst{Op: isa.OpMOV, R1: isa.R13, R2: isa.RSI},
		isa.Inst{Op: isa.OpSUB, R1: isa.R13, R2: isa.R12},
		isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.R13},
		isa.Inst{Op: isa.OpADDI, R1: isa.RBX, Imm: 16},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
	a.br(isa.OpJNE, "scan")
	a.label("done")
	a.ins(isa.Inst{Op: isa.OpRET})
	return a.build()
}

// traceAt returns the trace headed by the cached block entered at va,
// and whether it is valid for an entry there now (the entry check
// runChain makes).
func traceAt(t *testing.T, c *CPU, va uint64) (*trace, bool) {
	t.Helper()
	frame, _, ok := c.AS.Lookup(va)
	if !ok {
		t.Fatalf("%#x not mapped", va)
	}
	pb := c.blocks[frame]
	if pb == nil {
		return nil, false
	}
	sb := pb.get(int(va & mm.PageMask))
	if sb == nil || sb.trace == nil {
		return nil, false
	}
	tr := sb.trace
	return tr, tr.gen == c.AS.Generation() && tr.va == va && tr.current()
}

// The scan loop's trace is its Call's, on codeBase: the first run's
// path runs the prologue with A, then B, then A entered at the loop's
// VA, whose exit back to B closes the loop (constituent 2 back to 1),
// and ends when B's other exit leaves the loop.

// TestMegablockRunsScanLoop: the scan loop fuses into one loop trace and
// retires exactly the blocks, instructions and cycles of block execution
// without chaining, with every transition chained once warm.
func TestMegablockRunsScanLoop(t *testing.T) {
	fullMode(t)
	c := machine(t, scanLoop(100))
	var plain *CPU
	chainOff(t, func() { plain = machine(t, scanLoop(100)) })
	for i := 0; i < 2; i++ {
		run(t, c)
		run(t, plain)
	}
	m, ok := traceAt(t, c, codeBase)
	if !ok || len(m.parts) != 3 || m.back != 1 {
		t.Fatalf("scan loop trace = %+v, valid %v; want a valid three-block trace looping back to B", m, ok)
	}
	if c.Insts != plain.Insts || c.Cycles != plain.Cycles || c.Blocks != plain.Blocks {
		t.Fatalf("loop trace run = (%d insts, %d cycles, %d blocks), blocks only (%d, %d, %d)",
			c.Insts, c.Cycles, c.Blocks, plain.Insts, plain.Cycles, plain.Blocks)
	}
	blocks, chained := c.Blocks, c.ChainedBlocks
	run(t, c)
	if c.Blocks-blocks != c.ChainedBlocks-chained {
		t.Fatalf("warm run chained %d of %d blocks, want all", c.ChainedBlocks-chained, c.Blocks-blocks)
	}
}

// TestMegablockKeepsChainBound: the chain bound still cuts a loop trace
// pass, so Run's instruction budget fires after the same instruction as
// with per-block chaining (65 one-instruction blocks per dispatch).
func TestMegablockKeepsChainBound(t *testing.T) {
	fullMode(t)
	c := machine(t, []isa.Inst{{Op: isa.OpJMP, Disp: -5}})
	if err := c.Push(HostReturn); err != nil {
		t.Fatal(err)
	}
	c.RIP = codeBase
	if err := c.Run(10_000); err == nil {
		t.Fatal("runaway self-loop did not trip the instruction budget")
	}
	if _, ok := traceAt(t, c, codeBase); !ok {
		t.Fatal("self-loop formed no loop trace; the test exercised nothing")
	}
	if want := uint64(154 * (maxChainBlocks + 1)); c.Insts != want {
		t.Fatalf("budget fault after %d instructions, want %d", c.Insts, want)
	}
}

// TestMegablockSampler: with a sampler attached a formed loop trace is
// not entered, so samples fire at the same cycles and RIPs as without
// chaining, and the counters still match.
func TestMegablockSampler(t *testing.T) {
	fullMode(t)
	sample := func(c *CPU) []uint64 {
		run(t, c) // warm: the loop trace forms without a sampler
		var got []uint64
		c.SetSampler(7, func(va uint64) { got = append(got, c.Cycles, va) })
		for i := 0; i < 3; i++ {
			run(t, c)
		}
		return append(got, c.Insts, c.Cycles, c.Blocks)
	}
	c := machine(t, scanLoop(40))
	var plain *CPU
	chainOff(t, func() { plain = machine(t, scanLoop(40)) })
	got, want := sample(c), sample(plain)
	if _, ok := traceAt(t, c, codeBase); !ok {
		t.Fatal("no loop trace formed; the test exercised nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("samples with a loop trace formed differ from blocks-only:\n got %v\nwant %v", got, want)
	}
}

// TestMegablockDroppedAfterAliasWrite: a write through a writable alias
// of the loop's frame retires its loop trace, and the next entry runs the
// new bytes.
func TestMegablockDroppedAfterAliasWrite(t *testing.T) {
	fullMode(t)
	code := scanLoop(10)
	c := machine(t, code)
	run(t, c)
	run(t, c)
	if _, ok := traceAt(t, c, codeBase); !ok {
		t.Fatal("no loop trace before the write")
	}
	frame, _, _ := c.AS.Lookup(codeBase)
	alias := uint64(mm.KernelBase + 0x900000)
	if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	// Patch B's ADDI rbx, 16 to ADDI rax, 16: each trip now adds 16.
	addi := alias + uint64(len(encode(code[:10]...)))
	if err := c.AS.WriteBytes(addi, encode(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 16})); err != nil {
		t.Fatal(err)
	}
	if _, ok := traceAt(t, c, codeBase); ok {
		t.Fatal("loop trace still valid after an alias write to its frame")
	}
	if got := run(t, c); got != 16 {
		t.Fatalf("patched loop = %d, want 16 (a stale loop trace ran)", got)
	}
}

// storeAlias is where store tests map their code frame writable: the page
// after the data pages, so a pointer striding a page per loop trip from
// the data pages reaches it on a chosen trip.
const storeAlias = dataBase + 4*mm.PageSize

// TestMegablockStoreToOwnFrame: once the loop has fused, a store by
// constituent A into constituent B's bytes through a writable alias ends
// the pass at A's back edge, so B runs its new bytes in the same trip,
// as per-block execution does.
func TestMegablockStoreToOwnFrame(t *testing.T) {
	fullMode(t)
	// A: store rcx at r9; r9 += a page; je out (never taken)
	// B: movabs r10, imm; rax += r10; rcx--; jne A
	// rcx holds the trips. r9 starts in the first data page at the
	// imm's offset, so a run of 3 trips writes data and one of 5 writes
	// 1 into B's imm on its last trip, and B adds it.
	a := newAsm()
	a.ins(isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		isa.Inst{Op: isa.OpMOVABS, R1: isa.R9}) // set below
	a.label("A")
	a.ins(isa.Inst{Op: isa.OpSTORE, R1: isa.RCX, R2: isa.R9},
		isa.Inst{Op: isa.OpADDI, R1: isa.R9, Imm: mm.PageSize},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 100})
	a.br(isa.OpJE, "out")
	imm := a.offset(len(a.code)) + 2
	a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.R10},
		isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.R10},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
	a.br(isa.OpJNE, "A")
	a.label("out")
	a.ins(isa.Inst{Op: isa.OpRET})
	code := a.build()
	code[1].Imm = int64(dataBase + uint64(imm))
	c := machine(t, code)
	frame, _, _ := c.AS.Lookup(codeBase)
	if err := c.AS.Map(storeAlias, frame, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	c.Regs[isa.RCX] = 3
	if got := run(t, c); got != 0 {
		t.Fatalf("3-trip run = %d, want 0", got)
	}
	if tr, ok := traceAt(t, c, codeBase); !ok || tr.back != 1 {
		t.Fatalf("no loop trace after the 3-trip run: %+v, valid %v", tr, ok)
	}
	chained := c.ChainedBlocks
	c.Regs[isa.RCX] = 5
	if got := run(t, c); got != 1 {
		t.Fatalf("self-modifying loop = %d, want 1 (a stale constituent ran)", got)
	}
	// The entry and the 8 edges from trip 1's A to trip 5's A chain; at
	// trip 5's back edge B is stale, and its new block and the return
	// resolve through the dispatch path.
	if got := c.ChainedBlocks - chained; got != 9 {
		t.Fatalf("%d blocks chained, want the 9 of the trace's pass", got)
	}
}

// TestMegablockDroppedAfterRemap: a re-randomization-style move (map at
// a new base, unmap the old: a generation bump) stops the loop trace's
// entry; the loop runs at the new base with the same counts and fuses
// again there, and the old base faults.
func TestMegablockDroppedAfterRemap(t *testing.T) {
	fullMode(t)
	c := machine(t, scanLoop(10))
	run(t, c)
	run(t, c)
	insts := c.Insts
	run(t, c)
	perRun := c.Insts - insts
	newBase := uint64(mm.KernelBase + 0x940000)
	remap(t, c.AS, newBase, codeBase, 1)
	if err := c.AS.UnmapRegion(codeBase, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := traceAt(t, c, newBase); ok {
		t.Fatal("loop trace valid across a generation bump")
	}
	for i := 0; i < 2; i++ {
		insts = c.Insts
		if _, err := c.Call(newBase); err != nil {
			t.Fatal(err)
		}
		if c.Insts-insts != perRun {
			t.Fatalf("moved loop retired %d instructions, want %d", c.Insts-insts, perRun)
		}
	}
	if _, ok := traceAt(t, c, newBase); !ok {
		t.Fatal("loop did not fuse again at its new base")
	}
	var pf *mm.PageFault
	if _, err := c.Call(codeBase); !errors.As(err, &pf) {
		t.Fatalf("old base ran after the move: err=%v", err)
	}
}

// TestMegablockDroppedAfterRegisterNative: registering a native inside
// the loop moves block boundaries; the loop trace must not run past it.
func TestMegablockDroppedAfterRegisterNative(t *testing.T) {
	fullMode(t)
	code := scanLoop(10)
	c := machine(t, code)
	run(t, c)
	run(t, c)
	if _, ok := traceAt(t, c, codeBase); !ok {
		t.Fatal("no loop trace before RegisterNative")
	}
	// A native at B's ADD returns 777 to the loop's caller.
	c.RegisterNative(codeBase+uint64(len(encode(code[:9]...))), &Native{
		Name: "late", Cost: 1,
		Fn: func(c *CPU) error {
			c.Regs[isa.RAX] = 777
			return nil
		},
	})
	if _, ok := traceAt(t, c, codeBase); ok {
		t.Fatal("loop trace survived a native-table change")
	}
	// The native pops its return address: the loop reached it by falling
	// through, so it pops the host return and ends the call.
	if got := run(t, c); got != 777 {
		t.Fatalf("post-native run = %d, want 777 (a stale loop trace ran past the native)", got)
	}
}

// TestBranchConditions: the executor's table-driven JMP/Jcc — which
// guards share — takes each branch exactly when the AK64 condition holds,
// for every flags state.
func TestBranchConditions(t *testing.T) {
	c := machine(t, nil)
	conds := map[kind]func(zf, sf, cf bool) bool{
		kJMP: func(_, _, _ bool) bool { return true },
		kJE:  func(zf, _, _ bool) bool { return zf },
		kJNE: func(zf, _, _ bool) bool { return !zf },
		kJL:  func(_, sf, _ bool) bool { return sf },
		kJGE: func(_, sf, _ bool) bool { return !sf },
		kJLE: func(zf, sf, _ bool) bool { return zf || sf },
		kJG:  func(zf, sf, _ bool) bool { return !zf && !sf },
		kJB:  func(_, _, cf bool) bool { return cf },
		kJAE: func(_, _, cf bool) bool { return !cf },
	}
	for k, cond := range conds {
		for f := uint8(0); f < 8; f++ {
			c.flags = f
			c.RIP = codeBase
			if _, _, err := c.execBlock([]inst{{k: k, disp: 16, len: 5}}); err != nil {
				t.Fatal(err)
			}
			if taken, want := c.RIP == codeBase+21, cond(f&1 != 0, f&2 != 0, f&4 != 0); taken != want {
				t.Errorf("kind %d flags %03b: taken %v, want %v", k, f, taken, want)
			}
		}
	}
}

// fuzzGen reads a fuzz input as a stream of choices (zero once spent).
type fuzzGen []byte

func (g *fuzzGen) next() byte {
	if len(*g) == 0 {
		return 0
	}
	b := (*g)[0]
	*g = (*g)[1:]
	return b
}

// Where fuzz programs keep their GOT slot and native: a word on the
// first data page past the operations' slots, and a VA on the code page
// past the program. fuzzStraddle is the word across the first data
// page's end.
const (
	fuzzGOT      = dataBase + 0x800
	fuzzNative   = codeBase + 0x900
	fuzzStraddle = dataBase + mm.PageSize - 4
)

// fuzzOpts is what a fuzz program needs set up besides its code.
type fuzzOpts struct {
	alias  bool   // the writable alias storeAlias of the code page
	got    uint64 // the value of the GOT slot fuzzGOT (0: none)
	native bool   // fuzzNativeFn registered at fuzzNative
}

// fuzzNativeFn is the fuzz programs' native: it adds 3 to rax and, when
// rax is then odd, returns past the 6-byte ADDI that follows its call
// site instead of to it.
func fuzzNativeFn(c *CPU) error {
	c.Regs[isa.RAX] += 3
	if c.Regs[isa.RAX]&1 == 0 {
		return nil
	}
	ret, err := c.AS.Read64(c.Regs[isa.RSP])
	if err != nil {
		return err
	}
	return c.AS.Write64(c.Regs[isa.RSP], ret+6)
}

// fuzzProgram turns a fuzz input into a terminating AK64 loop program:
// an outer loop of 1-8 trips over random ALU, load, store and push/pop
// operations on scratch registers, optionally with an inner guard that
// skips some of them, a nested counted loop, a store through a pointer
// that strides a page a trip from the data pages to the writable alias
// storeAlias of the code, where it patches the immediate of a MOVABS the
// next trip loads (and faults past it), a divide whose divisor counts
// down to a fault, calls into a generated function — direct, through a
// GOT slot on the data page, or through a push; ret stub — with a loop
// of r14 trips in its middle, and a call of a native that returns to its
// caller or past it (fuzzNativeFn). With the straddle shape its loads
// and stores go through r15 to the three words around the end of the
// first data page, one of which straddles it: the resident probe
// declines there, so the slow path runs in the middle of a trace.
func fuzzProgram(data []byte) ([]isa.Inst, fuzzOpts) {
	g := fuzzGen(data)
	scratch := []isa.Reg{isa.RAX, isa.RSI, isa.R8, isa.R11}
	straddle := false
	ops := func(a *asm, n int) {
		for range n {
			r, r2 := scratch[g.next()%4], scratch[g.next()%4]
			imm, slot := int64(int8(g.next())), int32(g.next()%32)*8
			switch sel := g.next() % 14; sel {
			case 0:
				a.ins(isa.Inst{Op: isa.OpADDI, R1: r, Imm: imm})
			case 1:
				a.ins(isa.Inst{Op: isa.OpSUBI, R1: r, Imm: imm})
			case 2:
				a.ins(isa.Inst{Op: isa.OpXORI, R1: r, Imm: imm})
			case 3:
				a.ins(isa.Inst{Op: isa.OpANDI, R1: r, Imm: imm})
			case 4:
				a.ins(isa.Inst{Op: isa.OpSHLI, R1: r, Imm: imm & 63})
			case 5:
				a.ins(isa.Inst{Op: isa.OpSHRI, R1: r, Imm: imm & 63})
			case 6:
				a.ins(isa.Inst{Op: isa.OpADD, R1: r, R2: r2})
			case 7:
				a.ins(isa.Inst{Op: isa.OpXOR, R1: r, R2: r2})
			case 8:
				a.ins(isa.Inst{Op: isa.OpIMUL, R1: r, R2: r2})
			case 9, 10:
				op, base := isa.OpLOAD, isa.RBX
				if sel == 10 {
					op = isa.OpSTORE
				}
				if straddle { // the word before fuzzStraddle's, across the page end, or after
					base, slot = isa.R15, slot%24-8
				}
				a.ins(isa.Inst{Op: op, R1: r, R2: base, Disp: slot})
			case 11:
				a.ins(isa.Inst{Op: isa.OpPUSH, R1: r}, isa.Inst{Op: isa.OpPOP, R1: r2})
			case 12:
				a.ins(isa.Inst{Op: isa.OpCMP, R1: r, R2: r2})
			default:
				a.ins(isa.Inst{Op: isa.OpMOV, R1: r, R2: r2})
			}
		}
	}
	shape := g.next()
	alias, straddle := shape&8 != 0, shape&128 != 0
	var opts fuzzOpts
	calls, nativeAt, gotAt := 0, -1, []int(nil)
	a := newAsm()
	if straddle {
		a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.R15, Imm: int64(fuzzStraddle)})
	}
	a.ins(isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: 1 + int64(g.next()%8)},
		isa.Inst{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(dataBase)},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: int64(g.next())},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RSI, Imm: int64(g.next())},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RDI, Imm: 1 + int64(g.next()%6)},
		isa.Inst{Op: isa.OpMOVABS, R1: isa.R9}) // the store pointer, set below
	patch, trips := len(a.code), 1+int(g.next()%4) // trips before the store reaches the alias
	a.label("outer")
	if alias {
		a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.R10, Imm: 1})
	}
	ops(a, int(g.next()%6))
	if shape&1 != 0 { // inner guard
		jcc := []isa.Op{isa.OpJE, isa.OpJNE, isa.OpJL, isa.OpJGE, isa.OpJLE, isa.OpJG, isa.OpJB, isa.OpJAE}[g.next()%8]
		a.ins(isa.Inst{Op: isa.OpCMPI, R1: scratch[g.next()%4], Imm: int64(int8(g.next()))})
		a.br(jcc, "skip")
		ops(a, 1+int(g.next()%3))
		a.label("skip")
	}
	if shape&2 != 0 { // nested loop
		a.ins(isa.Inst{Op: isa.OpMOVI, R1: isa.RDX, Imm: 1 + int64(g.next()%5)})
		a.label("inner")
		ops(a, int(g.next()%4))
		a.ins(isa.Inst{Op: isa.OpSUBI, R1: isa.RDX, Imm: 1}, isa.Inst{Op: isa.OpCMPI, R1: isa.RDX, Imm: 0})
		a.br(isa.OpJNE, "inner")
	}
	ops(a, int(g.next()%4))
	if alias {
		a.ins(isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.R10},
			isa.Inst{Op: isa.OpSTORE, R1: isa.RAX, R2: isa.R9},
			isa.Inst{Op: isa.OpADDI, R1: isa.R9, Imm: mm.PageSize})
	}
	if shape&4 != 0 { // a divisor that reaches zero
		a.ins(isa.Inst{Op: isa.OpSUBI, R1: isa.RDI, Imm: 1}, isa.Inst{Op: isa.OpUDIV, R1: isa.RAX, R2: isa.RDI})
	}
	if shape&16 != 0 { // calls of fn: direct, through the GOT, or a stub
		calls = 1 + int(g.next()%3)
		for range calls {
			switch g.next() % 3 {
			case 0:
				a.br(isa.OpCALL, "fn")
			case 1:
				gotAt = append(gotAt, len(a.code))
				a.ins(isa.Inst{Op: isa.OpCALLM}) // disp set below
			default:
				a.br(isa.OpCALL, "stub")
			}
			ops(a, int(g.next()%3))
		}
	}
	if shape&32 != 0 { // a native that may return past the ADDI
		nativeAt = len(a.code)
		a.ins(isa.Inst{Op: isa.OpCALL}, // disp set below
			isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 7},
			isa.Inst{Op: isa.OpADDI, R1: isa.RSI, Imm: 1})
	}
	a.ins(isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1}, isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
	a.br(isa.OpJNE, "outer")
	a.ins(isa.Inst{Op: isa.OpRET})
	stub := -1
	if calls > 0 {
		a.label("fn")
		ops(a, 1+int(g.next()%3))
		if shape&64 != 0 { // a loop of r14 trips, which runModes sets per run
			a.ins(isa.Inst{Op: isa.OpMOV, R1: isa.R13, R2: isa.R14})
			if g.next()&1 != 0 {
				a.br(isa.OpJMP, "fnloop") // the loop's head starts a block
			}
			a.label("fnloop")
			ops(a, int(g.next()%3))
			a.ins(isa.Inst{Op: isa.OpSUBI, R1: isa.R13, Imm: 1}, isa.Inst{Op: isa.OpCMPI, R1: isa.R13, Imm: 0})
			a.br(isa.OpJNE, "fnloop")
			ops(a, 1+int(g.next()%2))
		}
		a.ins(isa.Inst{Op: isa.OpRET})
		a.label("stub")
		stub = len(a.code)
		a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.R12}, // fn, set below
			isa.Inst{Op: isa.OpPUSH, R1: isa.R12},
			isa.Inst{Op: isa.OpRET})
	}
	code := a.build()
	code[patch-1].Imm = int64(storeAlias - uint64(trips)*mm.PageSize + uint64(a.offset(patch)) + 2)
	if calls > 0 {
		fn := codeBase + uint64(a.offset(a.labels["fn"]))
		code[stub].Imm = int64(fn)
		opts.got = fn
		for _, i := range gotAt {
			code[i].Disp = int32(fuzzGOT - (codeBase + uint64(a.offset(i+1))))
		}
	}
	if nativeAt >= 0 {
		code[nativeAt].Disp = int32(fuzzNative - (codeBase + uint64(a.offset(nativeAt+1))))
		opts.native = true
	}
	opts.alias = alias
	return code, opts
}

// blockModes is one run of a fuzz program in one execution mode.
type blockModes struct {
	Regs                  [isa.NumRegs]uint64
	Flags                 uint8
	RIP                   uint64
	Insts, Cycles, Blocks uint64
	Chained               uint64
	Mem                   []uint64
	Err                   string
	FaultRIP              uint64
}

// Execution modes of a fuzz program.
const (
	modeStep     = iota // single-stepped
	modeBlocks          // blocks without chaining
	modeMega            // chained, with traces
	modePerBlock        // chained block by block: a sampler that never fires keeps traces off
)

// runModes runs code three times (cold, as traces form, and through
// them) in one mode, with r14 set to 1, 3 and 2: the trips of fn's loop,
// so that a trace recorded on one trip forms again with its back edge.
func runModes(t *testing.T, code []isa.Inst, opts fuzzOpts, mode int) blockModes {
	t.Helper()
	wasChain, wasIndirect := SetChaining(mode >= modeMega), SetIndirect(true)
	c := machine(t, code)
	SetChaining(wasChain)
	SetIndirect(wasIndirect)
	if mode == modePerBlock {
		c.SetSampler(1<<62, func(uint64) { t.Error("sampler fired") })
	}
	if opts.alias {
		frame, _, _ := c.AS.Lookup(codeBase)
		if err := c.AS.Map(storeAlias, frame, mm.FlagWrite); err != nil {
			t.Fatal(err)
		}
	}
	if opts.got != 0 {
		if err := c.AS.Write64(fuzzGOT, opts.got); err != nil {
			t.Fatal(err)
		}
	}
	if opts.native {
		c.RegisterNative(fuzzNative, &Native{Name: "fuzz", Cost: 5, Fn: fuzzNativeFn})
	}
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		c.Regs[isa.R14] = []uint64{1, 3, 2}[i]
		if mode != modeStep {
			err = execute(c, false)
			continue
		}
		if err = c.Push(HostReturn); err != nil {
			break
		}
		c.RIP = codeBase
		for start := c.Insts; ; {
			halted, serr := c.Step()
			if err = serr; err != nil || halted {
				break
			}
			if c.Insts-start > 1_000_000 {
				t.Fatal("single-stepped program did not terminate")
			}
		}
	}
	o := blockModes{Regs: c.Regs, Flags: c.flags, RIP: c.RIP, Insts: c.Insts, Cycles: c.Cycles,
		Blocks: c.Blocks, Chained: c.ChainedBlocks}
	for _, base := range []uint64{dataBase, fuzzStraddle - 124, codeBase, stackTop - 256} {
		for off := uint64(0); off < 256; off += 8 {
			v, _ := c.AS.Read64(base + off)
			o.Mem = append(o.Mem, v)
		}
	}
	if err != nil {
		o.Err = err.Error()
		var f *Fault
		if errors.As(err, &f) {
			o.FaultRIP = f.RIP
		}
	}
	return o
}

// FuzzBlockModes runs generated programs single-stepped, as blocks
// without chaining, chained block by block and chained with traces, and
// requires the same registers, flags, memory, instruction and cycle
// counts and fault shape in all four, the same block count in the three
// block modes, and the same ChainedBlocks in the two chained ones: a
// trace charges each block it passes as a followed link would.
func FuzzBlockModes(f *testing.F) {
	f.Add([]byte{0, 7, 1, 2, 3, 4, 10, 0, 9, 1, 6, 2, 6, 3, 1, 0, 0, 2})
	f.Add([]byte{3, 5, 9, 4, 2, 3, 1, 2, 3, 9, 0, 1, 8, 7, 9, 6, 3, 3, 1, 2, 5, 6, 11, 3, 2, 1, 4, 8})
	f.Add([]byte{11, 7, 40, 3, 5, 2, 1, 1, 7, 10, 4, 2, 3, 6, 5, 0, 3, 9, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		code, opts := fuzzProgram(data)
		mega := runModes(t, code, opts, modeMega)
		step := runModes(t, code, opts, modeStep)
		blocks := runModes(t, code, opts, modeBlocks)
		perBlock := runModes(t, code, opts, modePerBlock)
		// Single-stepping retires no blocks and nothing chains without
		// chaining.
		step.Blocks, step.Chained, blocks.Chained = mega.Blocks, mega.Chained, mega.Chained
		for _, o := range []struct {
			name string
			got  blockModes
		}{{"single-stepped", step}, {"blocks only", blocks}, {"chained block by block", perBlock}} {
			if fmt.Sprint(o.got) != fmt.Sprint(mega) {
				t.Fatalf("%s differs from traces:\n%s: %+v\ntraces: %+v\ncode: %v", o.name, o.name, o.got, mega, code)
			}
		}
	})
}
