package cpu

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

const (
	codeBase  = mm.KernelBase + 0x100000
	dataBase  = mm.KernelBase + 0x200000
	stackTop  = mm.KernelBase + 0x300000 // stack occupies the pages below
	stackPgs  = 4
	stackBase = stackTop - stackPgs*mm.PageSize
)

// machine maps a code region, a data region and a stack, writes the given
// instructions at codeBase, and returns a ready CPU.
func machine(t testing.TB, code []isa.Inst) *CPU {
	t.Helper()
	as := mm.NewAddressSpace(mm.NewPhysMem())
	if _, err := as.MapRegion(codeBase, 4, mm.FlagExec); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapRegion(dataBase, 4, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapRegion(stackBase, stackPgs, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, in := range code {
		buf = in.Append(buf)
	}
	if err := as.WriteBytesForce(codeBase, buf); err != nil {
		t.Fatal(err)
	}
	c := New(0, as)
	c.Regs[isa.RSP] = stackTop
	return c
}

// run executes at codeBase until halt and returns RAX.
func run(t *testing.T, c *CPU) uint64 {
	t.Helper()
	v, err := c.Call(codeBase)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmeticAndLoop(t *testing.T) {
	// Sum 1..10 into RAX.
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		{Op: isa.OpMOVI, R1: isa.RCX, Imm: 10},
		// loop:
		{Op: isa.OpADD, R1: isa.RAX, R2: isa.RCX},
		{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0},
		{Op: isa.OpJNE, Disp: -19}, // back to ADD (2+6+6+5=19 bytes)
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestAllALUOps(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 12},
		{Op: isa.OpMOVI, R1: isa.RBX, Imm: 5},
		{Op: isa.OpSUB, R1: isa.RAX, R2: isa.RBX},  // 7
		{Op: isa.OpIMUL, R1: isa.RAX, R2: isa.RBX}, // 35
		{Op: isa.OpMOVI, R1: isa.RCX, Imm: 3},
		{Op: isa.OpUDIV, R1: isa.RAX, R2: isa.RCX}, // 11
		{Op: isa.OpXORI, R1: isa.RAX, Imm: 0xFF},   // 11^255 = 244
		{Op: isa.OpANDI, R1: isa.RAX, Imm: 0xF0},   // 240
		{Op: isa.OpSHRI, R1: isa.RAX, Imm: 4},      // 15
		{Op: isa.OpSHLI, R1: isa.RAX, Imm: 2},      // 60
		{Op: isa.OpOR, R1: isa.RAX, R2: isa.RBX},   // 60|5 = 61
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != 61 {
		t.Fatalf("ALU chain = %d, want 61", got)
	}
}

func TestLoadStore(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(dataBase)},
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0x1234},
		{Op: isa.OpSTORE, R1: isa.RAX, R2: isa.RBX, Disp: 16},
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RBX, Disp: 16},
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != 0x1234 {
		t.Fatalf("load/store = %#x, want 0x1234", got)
	}
}

func TestPushPopAndCallRet(t *testing.T) {
	// entry: call f (skips over f's body via the call target math);
	// f: rax = 7; ret
	entry := []isa.Inst{
		{Op: isa.OpCALL, Disp: 1},             // target = 5 (next) + 1 = offset 6: f
		{Op: isa.OpRET},                       // after f returns
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 7}, // f at offset 6
		{Op: isa.OpRET},
	}
	c := machine(t, entry)
	if got := run(t, c); got != 7 {
		t.Fatalf("call/ret = %d, want 7", got)
	}
	if c.Regs[isa.RSP] != stackTop {
		t.Fatalf("stack not balanced: rsp=%#x want %#x", c.Regs[isa.RSP], stackTop)
	}
}

func TestRIPRelativeAddressing(t *testing.T) {
	// lea of a known offset, then rip-relative store and load.
	// Layout: lea (6) at 0, store-rip (6) at 6, load-rip (6) at 12, ret at 18.
	// Use dataBase via register instead for the store; test LEARIP math.
	c := machine(t, []isa.Inst{
		{Op: isa.OpLEARIP, R1: isa.RAX, Disp: 100}, // rax = rip_next + 100 = codeBase+6+100
		{Op: isa.OpRET},
	})
	if got := run(t, c); got != codeBase+6+100 {
		t.Fatalf("lea rip = %#x, want %#x", got, codeBase+6+100)
	}
}

func TestGOTIndirectCall(t *testing.T) {
	// A GOT slot in the data region holds the address of target code; the
	// CALLM instruction reads it and calls through.
	target := uint64(codeBase + 0x80)
	c := machine(t, nil)
	// main at codeBase: callm [rip+disp] ; ret
	// GOT slot placed at dataBase.
	var buf []byte
	disp := int32(int64(dataBase) - int64(codeBase+5)) // next rip after CALLM = codeBase+5
	buf = isa.Inst{Op: isa.OpCALLM, Disp: disp}.Append(buf)
	buf = isa.Inst{Op: isa.OpRET}.Append(buf)
	if err := c.AS.WriteBytesForce(codeBase, buf); err != nil {
		t.Fatal(err)
	}
	var fn []byte
	fn = isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 31337}.Append(fn)
	fn = isa.Inst{Op: isa.OpRET}.Append(fn)
	if err := c.AS.WriteBytesForce(target, fn); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Write64(dataBase, target); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 31337 {
		t.Fatalf("got-indirect call = %d, want 31337", got)
	}
}

func TestReturnAddressEncryptionSequence(t *testing.T) {
	// The exact prologue/epilogue of paper Fig. 3b (non-static variant):
	//   prologue: mov key, %r11 ; xor %r11, (%rsp) ; xor %r11, %r11
	//   epilogue: the same, then ret
	// With the key in a register-addressed slot here (the GOT variant is
	// exercised in the kernel loader tests).
	key := uint64(0xDEADBEEFCAFEBABE)
	c := machine(t, nil)
	if err := c.AS.Write64(dataBase+8, key); err != nil {
		t.Fatal(err)
	}
	var main []byte
	// call f (f directly follows at offset 5+1=6... compute: call is 5B, ret 1B → f at 6)
	main = isa.Inst{Op: isa.OpCALL, Disp: 1}.Append(main) // target = 5+1 = 6
	main = isa.Inst{Op: isa.OpRET}.Append(main)
	// f:
	f := []isa.Inst{
		{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(dataBase)},
		{Op: isa.OpLOAD, R1: isa.R11, R2: isa.RBX, Disp: 8}, // key
		{Op: isa.OpXORM, R1: isa.R11, R2: isa.RSP, Disp: 0}, // encrypt return address
		{Op: isa.OpXOR, R1: isa.R11, R2: isa.R11},           // clear scratch
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 55},
		// epilogue: decrypt
		{Op: isa.OpLOAD, R1: isa.R11, R2: isa.RBX, Disp: 8},
		{Op: isa.OpXORM, R1: isa.R11, R2: isa.RSP, Disp: 0},
		{Op: isa.OpXOR, R1: isa.R11, R2: isa.R11},
		{Op: isa.OpRET},
	}
	for _, in := range f {
		main = in.Append(main)
	}
	if err := c.AS.WriteBytesForce(codeBase, main); err != nil {
		t.Fatal(err)
	}
	if got := run(t, c); got != 55 {
		t.Fatalf("encrypted-return function = %d, want 55", got)
	}
	if c.Regs[isa.R11] != 0 {
		t.Fatal("scratch register leaked the key")
	}
}

func TestReturnWithWrongKeyFaultsOrDiverges(t *testing.T) {
	// If the epilogue decrypts with a different key, the return address is
	// garbage — exactly the protection §6 describes for hijacked returns.
	c := machine(t, nil)
	var main []byte
	main = isa.Inst{Op: isa.OpCALL, Disp: 1}.Append(main)
	main = isa.Inst{Op: isa.OpRET}.Append(main)
	f := []isa.Inst{
		{Op: isa.OpMOVABS, R1: isa.R11, Imm: 0x1111}, // encrypt key A
		{Op: isa.OpXORM, R1: isa.R11, R2: isa.RSP, Disp: 0},
		{Op: isa.OpMOVABS, R1: isa.R11, Imm: 0x2222}, // decrypt key B ≠ A
		{Op: isa.OpXORM, R1: isa.R11, R2: isa.RSP, Disp: 0},
		{Op: isa.OpRET},
	}
	for _, in := range f {
		main = in.Append(main)
	}
	if err := c.AS.WriteBytesForce(codeBase, main); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(codeBase); err == nil {
		t.Fatal("return through mismatched key should fault")
	}
}

func TestNXFaultOnDataExecution(t *testing.T) {
	c := machine(t, []isa.Inst{{Op: isa.OpRET}})
	_, err := c.Call(dataBase) // data region is NX
	var pf *mm.PageFault
	if !errors.As(err, &pf) || pf.Access != mm.AccessExec {
		t.Fatalf("got %v, want exec page fault", err)
	}
}

func TestWriteFaultSurfacesRIP(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(codeBase)}, // exec page: not writable
		{Op: isa.OpSTORE, R1: isa.RAX, R2: isa.RBX},
		{Op: isa.OpRET},
	})
	_, err := c.Call(codeBase)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want *Fault", err)
	}
	if f.RIP != codeBase+10 {
		t.Fatalf("fault RIP = %#x, want %#x (the store)", f.RIP, codeBase+10)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
		{Op: isa.OpMOVI, R1: isa.RBX, Imm: 0},
		{Op: isa.OpUDIV, R1: isa.RAX, R2: isa.RBX},
		{Op: isa.OpRET},
	})
	if _, err := c.Call(codeBase); err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("got %v, want divide-by-zero fault", err)
	}
}

func TestNativeDispatchAndArgs(t *testing.T) {
	c := machine(t, nil)
	nativeVA := uint64(codeBase + 0x800)
	var got []uint64
	c.RegisterNative(nativeVA, &Native{
		Name: "sum3", Cost: 10,
		Fn: func(c *CPU) error {
			got = append(got, c.Regs[isa.RDI], c.Regs[isa.RSI], c.Regs[isa.RDX])
			c.Regs[isa.RAX] = c.Regs[isa.RDI] + c.Regs[isa.RSI] + c.Regs[isa.RDX]
			return nil
		},
	})
	v, err := c.Call(nativeVA, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 || len(got) != 3 {
		t.Fatalf("native call = %d (args %v), want 6", v, got)
	}
	if c.Cycles < 10 {
		t.Fatal("native cost not charged")
	}
}

func TestNativeCallingModuleCode(t *testing.T) {
	// Kernel→module callback: a native invokes interpreted code via Call.
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
		{Op: isa.OpADD, R1: isa.RAX, R2: isa.RDI},
		{Op: isa.OpADD, R1: isa.RAX, R2: isa.RSI},
		{Op: isa.OpRET},
	})
	nativeVA := uint64(codeBase + 0x800)
	c.RegisterNative(nativeVA, &Native{
		Name: "invoke_handler", Cost: 5,
		Fn: func(c *CPU) error {
			v, err := c.Call(codeBase, 20, 22)
			if err != nil {
				return err
			}
			c.Regs[isa.RAX] = v + 1
			return nil
		},
	})
	v, err := c.Call(nativeVA)
	if err != nil {
		t.Fatal(err)
	}
	if v != 43 {
		t.Fatalf("nested call = %d, want 43", v)
	}
}

func TestInstructionBudget(t *testing.T) {
	// Infinite loop must be caught by the budget.
	c := machine(t, []isa.Inst{
		{Op: isa.OpJMP, Disp: -5},
	})
	c.Regs[isa.RSP] = stackTop
	if err := c.Push(HostReturn); err != nil {
		t.Fatal(err)
	}
	c.RIP = codeBase
	err := c.Run(1000)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("got %v, want budget fault", err)
	}
}

func TestConditionalJumps(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		take bool
	}{
		{isa.OpJE, 5, 5, true}, {isa.OpJE, 5, 6, false},
		{isa.OpJNE, 5, 6, true}, {isa.OpJNE, 5, 5, false},
		{isa.OpJL, -1, 0, true}, {isa.OpJL, 0, -1, false},
		{isa.OpJGE, 0, -1, true}, {isa.OpJGE, -1, 0, false},
		{isa.OpJLE, 3, 3, true}, {isa.OpJLE, 4, 3, false},
		{isa.OpJG, 4, 3, true}, {isa.OpJG, 3, 3, false},
		{isa.OpJB, 1, 2, true}, {isa.OpJB, ^0, 1, false}, // unsigned: 2^64-1 not below 1
		{isa.OpJAE, ^0, 1, true}, {isa.OpJAE, 1, 2, false},
	}
	for _, tc := range cases {
		c := machine(t, []isa.Inst{
			{Op: isa.OpMOVABS, R1: isa.RAX, Imm: tc.a},
			{Op: isa.OpMOVABS, R1: isa.RBX, Imm: tc.b},
			{Op: isa.OpCMP, R1: isa.RAX, R2: isa.RBX},
			{Op: tc.op, Disp: 7}, // skip over "mov rax,0; ret" (6+1)
			{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0},
			{Op: isa.OpRET},
			{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1},
			{Op: isa.OpRET},
		})
		got := run(t, c)
		want := uint64(0)
		if tc.take {
			want = 1
		}
		if got != want {
			t.Errorf("%s(%d,%d): taken=%d, want %d", tc.op.Name(), tc.a, tc.b, got, want)
		}
	}
}

func TestCyclesChargeTLBMisses(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(dataBase)},
		{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RBX},
		{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RBX},
		{Op: isa.OpRET},
	})
	run(t, c)
	// First load misses (+CostTLBMiss), second hits. Plus fetch misses.
	if c.Cycles <= c.Insts {
		t.Fatalf("cycles (%d) should exceed instruction count (%d) due to TLB misses", c.Cycles, c.Insts)
	}
}

func TestHalt(t *testing.T) {
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 9},
		{Op: isa.OpHLT},
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 10}, // unreachable
	})
	c.RIP = codeBase
	c.Regs[isa.RSP] = stackTop
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.RAX] != 9 {
		t.Fatalf("rax = %d, want 9 (hlt must stop execution)", c.Regs[isa.RAX])
	}
}

// BenchmarkBlockDispatch runs one ALU loop whose body holds 1, 10 or 40
// instruction pairs, so the host time per simulated instruction shifts
// from the block transition (a 5-instruction body) to the executor's
// per-instruction dispatch (an 83-instruction body), and the two-block
// loop of ext4_get_block's extent scan (shape=scan, see scanLoop: a
// 3-instruction load-compare block whose JB is never taken, then an
// 8-instruction block that branches back). shape=extents is that scan
// as ext4_get_block runs it, a few trips a call: each Call passes 1..8
// trips in turn in its first argument. Two loop-free shapes measure the
// transitions of a wrapped driver call: shape=straight is 16
// direct-linked 4-instruction blocks per Call, and shape=calls is 8
// CALL/RET pairs into a 3-instruction function (17 blocks per Call).
// Each sub-benchmark reports ns/inst and the blocks retired per trip (a
// loop trip, or a Call for shape=extents and the loop-free shapes); the
// difference between the pairs=1 and pairs=40 ns/inst is the cost of a
// block transition.
func BenchmarkBlockDispatch(b *testing.B) {
	for _, sh := range dispatchShapes(1000) {
		b.Run(sh.name, func(b *testing.B) {
			c := machine(b, sh.code)
			b.ReportAllocs()
			insts, blocks := c.Insts, c.Blocks
			for i := 0; b.Loop(); i++ {
				c.Regs[isa.RSP] = stackTop
				if sh.args != nil {
					c.Regs[isa.ArgRegs[0]] = sh.args[i%len(sh.args)]
				}
				if _, err := c.Call(codeBase); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Insts-insts), "ns/inst")
			b.ReportMetric(float64(c.Blocks-blocks)/float64(int64(b.N)*sh.trips), "blocks/iter")
		})
	}
}

// dispatchShape is one of BenchmarkBlockDispatch's programs, running
// trips loop trips (or 1 for a loop-free shape) per Call. The Calls
// pass args, if set, in turn as their first argument.
type dispatchShape struct {
	name  string
	code  []isa.Inst
	trips int64
	args  []uint64
}

// dispatchShapes returns BenchmarkBlockDispatch's programs, the loops
// running iters trips per Call.
func dispatchShapes(iters int64) []dispatchShape {
	var shapes []dispatchShape
	for _, pairs := range []int{1, 10, 40} {
		var body []isa.Inst
		for range pairs {
			body = append(body,
				isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 3},
				isa.Inst{Op: isa.OpXOR, R1: isa.RBX, R2: isa.RAX})
		}
		body = append(body,
			isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
			isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
		back := -int32(len(encode(body...)) + 5) // JNE to the body start
		code := append([]isa.Inst{{Op: isa.OpMOVI, R1: isa.RCX, Imm: iters}}, body...)
		code = append(code, isa.Inst{Op: isa.OpJNE, Disp: back}, isa.Inst{Op: isa.OpRET})
		shapes = append(shapes, dispatchShape{name: fmt.Sprintf("pairs=%d", pairs), code: code, trips: iters})
	}
	shapes = append(shapes, dispatchShape{name: "shape=scan", code: scanLoop(iters), trips: iters})
	// shape=extents: the scan's trips come from the first argument (the
	// branches are relative, so the shorter first instruction moves none).
	extents := scanLoop(0)
	extents[0] = isa.Inst{Op: isa.OpMOV, R1: isa.RCX, R2: isa.ArgRegs[0]}
	shapes = append(shapes, dispatchShape{name: "shape=extents", code: extents, trips: 1, args: []uint64{1, 2, 3, 4, 5, 6, 7, 8}})
	// shape=straight: each block's JMP goes to the next instruction.
	var straight []isa.Inst
	for i := range 16 {
		straight = append(straight,
			isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 3},
			isa.Inst{Op: isa.OpXOR, R1: isa.RBX, R2: isa.RAX},
			isa.Inst{Op: isa.OpADDI, R1: isa.RCX, Imm: 1},
			isa.Inst{Op: isa.OpJMP})
		if i == 15 {
			straight[len(straight)-1] = isa.Inst{Op: isa.OpRET}
		}
	}
	shapes = append(shapes, dispatchShape{name: "shape=straight", code: straight, trips: 1})
	// shape=calls: 8 CALLs of f, then RET; f adds, xors and returns.
	a := newAsm()
	for range 8 {
		a.br(isa.OpCALL, "f")
	}
	a.ins(isa.Inst{Op: isa.OpRET})
	a.label("f")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 3},
		isa.Inst{Op: isa.OpXOR, R1: isa.RBX, R2: isa.RAX},
		isa.Inst{Op: isa.OpRET})
	return append(shapes, dispatchShape{name: "shape=calls", code: a.build(), trips: 1})
}
