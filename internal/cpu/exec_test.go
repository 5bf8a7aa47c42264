package cpu

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// TestEveryOpcodeHasAKind: every opcode byte isa.Decode accepts must map
// to an executor kind, and every other byte to kBad.
func TestEveryOpcodeHasAKind(t *testing.T) {
	seen := map[kind]bool{}
	for b := 0; b < 256; b++ {
		buf := make([]byte, isa.MaxInstLen) // register operands decode as rax
		buf[0] = byte(b)
		_, err := isa.Decode(buf)
		switch k := kinds[b]; {
		case err == nil && k == kBad:
			t.Errorf("opcode %#02x (%s) decodes but has no executor kind", b, isa.Op(b).Name())
		case err != nil && k != kBad:
			t.Errorf("byte %#02x does not decode (%v) but maps to kind %d", b, err, k)
		case err == nil:
			seen[k] = true
		}
	}
	for k := kBad + 1; k <= kRET; k++ {
		if !seen[k] {
			t.Errorf("kind %d has no opcode", k)
		}
	}
}

// execute runs the code at codeBase until it halts or faults, the way
// Call does but leaving RIP where execution stopped: through block
// execution, or one Step at a time.
func execute(c *CPU, step bool) error {
	if err := c.Push(HostReturn); err != nil {
		return err
	}
	c.RIP = codeBase
	if !step {
		return c.Run(DefaultMaxInsts)
	}
	for {
		halted, err := c.Step()
		if err != nil || halted {
			return err
		}
	}
}

// execCase is one instruction under test. Its program is a fixed
// set-up — rax = a, rbx = b, rsi = a data pointer, rdi = the landing
// address, then cmp rax, rbx for the flags — then pre, then op, then two
// HLTs; a taken branch lands on the second. Disp of a RIP-relative op
// is filled in to reach the data page's first word, which holds got
// (the landing address by default).
type execCase struct {
	name string
	a, b uint64
	pre  []isa.Inst
	op   isa.Inst
	got  uint64
}

// program assembles the case's code and returns it with the landing
// address.
func (tc execCase) program() ([]isa.Inst, uint64) {
	setup := func(landing uint64) []isa.Inst {
		return append([]isa.Inst{
			{Op: isa.OpMOVABS, R1: isa.RAX, Imm: int64(tc.a)},
			{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(tc.b)},
			{Op: isa.OpMOVABS, R1: isa.RSI, Imm: int64(dataBase + 8)},
			{Op: isa.OpMOVABS, R1: isa.RDI, Imm: int64(landing)},
			{Op: isa.OpCMP, R1: isa.RAX, R2: isa.RBX},
		}, tc.pre...)
	}
	opAt := codeBase + uint64(len(encode(setup(0)...)))
	opEnd := opAt + uint64(len(encode(tc.op)))
	landing := opEnd + 1
	op := tc.op
	switch op.Op {
	case isa.OpLDRIP, isa.OpSTRIP, isa.OpCALLM, isa.OpJMPM:
		if op.Disp == 0 {
			op.Disp = int32(dataBase - opEnd)
		}
	}
	return append(setup(landing), op, isa.Inst{Op: isa.OpHLT}, isa.Inst{Op: isa.OpHLT}), landing
}

// outcome is everything an instruction can change, plus its fault shape.
type outcome struct {
	Regs           [isa.NumRegs]uint64
	Flags          uint8
	RIP            uint64
	Insts, Cycles  uint64
	Data, Stack    [8]uint64 // first words of the data page and stack top
	Err            string
	FaultRIP       uint64
	FaultReason    string
	FaultCPU       int
	FaultHasReason bool
}

func (tc execCase) run(t *testing.T, step bool) outcome {
	t.Helper()
	code, landing := tc.program()
	c := machine(t, code)
	got := tc.got
	if got == 0 {
		got = landing
	}
	if err := c.AS.Write64(dataBase, got); err != nil {
		t.Fatal(err)
	}
	err := execute(c, step)
	o := outcome{Regs: c.Regs, Flags: c.flags, RIP: c.RIP, Insts: c.Insts, Cycles: c.Cycles}
	for i := range o.Data {
		o.Data[i], _ = c.AS.Read64(dataBase + uint64(i)*8)
		o.Stack[i], _ = c.AS.Read64(stackTop - uint64(i+1)*8)
	}
	if err != nil {
		o.Err = err.Error()
		var f *Fault
		if errors.As(err, &f) {
			o.FaultRIP, o.FaultReason, o.FaultCPU, o.FaultHasReason = f.RIP, f.Reason, f.CPU, true
		}
	}
	return o
}

// execCases covers every executor kind, with a fault case for each kind
// that can fault.
func execCases() []execCase {
	const unmapped = mm.KernelBase + 0x700000
	r := func(op isa.Op, r1, r2 isa.Reg) isa.Inst { return isa.Inst{Op: op, R1: r1, R2: r2} }
	ri := func(op isa.Op, r1 isa.Reg, imm int64) isa.Inst { return isa.Inst{Op: op, R1: r1, Imm: imm} }
	rd := func(op isa.Op, r1, r2 isa.Reg, disp int32) isa.Inst {
		return isa.Inst{Op: op, R1: r1, R2: r2, Disp: disp}
	}
	badStack := []isa.Inst{{Op: isa.OpMOVABS, R1: isa.RSP, Imm: int64(unmapped)}}
	cs := []execCase{
		{name: "nop", op: isa.Inst{Op: isa.OpNOP}},
		{name: "hlt", op: isa.Inst{Op: isa.OpHLT}},
		{name: "movabs", op: ri(isa.OpMOVABS, isa.RCX, -0x123456789)},
		{name: "movi", op: ri(isa.OpMOVI, isa.R15, -7)},
		{name: "mov", op: r(isa.OpMOV, isa.RCX, isa.RAX)},
		{name: "learip", op: rd(isa.OpLEARIP, isa.RCX, 0, -9)},
		{name: "udiv", op: r(isa.OpUDIV, isa.RAX, isa.RBX)},
		{name: "udiv/fault", pre: []isa.Inst{ri(isa.OpMOVI, isa.RCX, 0)}, op: r(isa.OpUDIV, isa.RAX, isa.RCX)},
		{name: "shli", op: ri(isa.OpSHLI, isa.RAX, 63)},
		{name: "shri", op: ri(isa.OpSHRI, isa.RAX, 3)},
		{name: "load", op: rd(isa.OpLOAD, isa.RCX, isa.RSI, -8)},
		{name: "load/fault", op: rd(isa.OpLOAD, isa.RCX, isa.RAX, 0), a: unmapped},
		{name: "store", op: rd(isa.OpSTORE, isa.RBX, isa.RSI, 8)},
		{name: "store/fault", op: rd(isa.OpSTORE, isa.RBX, isa.RDI, 0)},
		{name: "ldrip", op: rd(isa.OpLDRIP, isa.RCX, 0, 0)},
		{name: "ldrip/fault", op: rd(isa.OpLDRIP, isa.RCX, 0, 0x300000)},
		{name: "strip", op: rd(isa.OpSTRIP, isa.RAX, 0, 0)},
		{name: "strip/fault", op: rd(isa.OpSTRIP, isa.RAX, 0, -64)},
		{name: "xorm", op: rd(isa.OpXORM, isa.RAX, isa.RSI, -8)},
		{name: "xorm/load-fault", op: rd(isa.OpXORM, isa.RAX, isa.RAX, 0), a: unmapped},
		{name: "xorm/store-fault", op: rd(isa.OpXORM, isa.RAX, isa.RDI, 0)},
		{name: "push", op: r(isa.OpPUSH, isa.RBX, 0)},
		{name: "push/rsp", op: r(isa.OpPUSH, isa.RSP, 0)},
		{name: "push/fault", pre: badStack, op: r(isa.OpPUSH, isa.RBX, 0)},
		{name: "pop", pre: []isa.Inst{r(isa.OpPUSH, isa.RBX, 0)}, op: r(isa.OpPOP, isa.RCX, 0)},
		{name: "pop/rsp", pre: []isa.Inst{r(isa.OpPUSH, isa.RBX, 0)}, op: r(isa.OpPOP, isa.RSP, 0)},
		{name: "pop/fault", pre: badStack, op: r(isa.OpPOP, isa.RCX, 0)},
		{name: "jmp", op: isa.Inst{Op: isa.OpJMP, Disp: 1}},
		{name: "call", op: isa.Inst{Op: isa.OpCALL, Disp: 1}},
		{name: "call/fault", pre: badStack, op: isa.Inst{Op: isa.OpCALL, Disp: 1}},
		{name: "callr", op: r(isa.OpCALLR, isa.RDI, 0)},
		{name: "callr/rsp", op: r(isa.OpCALLR, isa.RSP, 0)},
		{name: "callr/fault", pre: badStack, op: r(isa.OpCALLR, isa.RDI, 0)},
		{name: "callm", op: isa.Inst{Op: isa.OpCALLM}},
		{name: "callm/load-fault", op: isa.Inst{Op: isa.OpCALLM, Disp: 0x300000}},
		{name: "callm/push-fault", pre: badStack, op: isa.Inst{Op: isa.OpCALLM}},
		{name: "jmpr", op: r(isa.OpJMPR, isa.RDI, 0)},
		{name: "jmpr/host", pre: []isa.Inst{ri(isa.OpMOVABS, isa.RCX, int64(HostReturn))}, op: r(isa.OpJMPR, isa.RCX, 0)},
		{name: "jmpm", op: isa.Inst{Op: isa.OpJMPM}},
		{name: "jmpm/host", op: isa.Inst{Op: isa.OpJMPM}, got: HostReturn},
		{name: "jmpm/fault", op: isa.Inst{Op: isa.OpJMPM, Disp: 0x300000}},
		{name: "ret/host", op: isa.Inst{Op: isa.OpRET}},
		{name: "ret", pre: []isa.Inst{r(isa.OpPUSH, isa.RDI, 0)}, op: isa.Inst{Op: isa.OpRET}},
		{name: "ret/fault", pre: badStack, op: isa.Inst{Op: isa.OpRET}},
	}
	// Flag producers, flag consumers and ALU ops under operand pairs that
	// give each ordering, signed and unsigned.
	pairs := [][2]uint64{{5, 9}, {9, 5}, {7, 7}, {^uint64(0), 1}, {1, ^uint64(0)}}
	for _, p := range pairs {
		for _, op := range []isa.Inst{
			r(isa.OpADD, isa.RAX, isa.RBX), r(isa.OpSUB, isa.RAX, isa.RBX),
			r(isa.OpXOR, isa.RAX, isa.RBX), r(isa.OpAND, isa.RAX, isa.RBX),
			r(isa.OpOR, isa.RAX, isa.RBX), r(isa.OpIMUL, isa.RAX, isa.RBX),
			ri(isa.OpADDI, isa.RAX, -3), ri(isa.OpSUBI, isa.RAX, 3),
			ri(isa.OpXORI, isa.RAX, 0x55), ri(isa.OpANDI, isa.RAX, -2),
			r(isa.OpCMP, isa.RBX, isa.RAX), ri(isa.OpCMPI, isa.RAX, 7),
			r(isa.OpTEST, isa.RAX, isa.RBX),
			{Op: isa.OpJE, Disp: 1}, {Op: isa.OpJNE, Disp: 1},
			{Op: isa.OpJL, Disp: 1}, {Op: isa.OpJGE, Disp: 1},
			{Op: isa.OpJLE, Disp: 1}, {Op: isa.OpJG, Disp: 1},
			{Op: isa.OpJB, Disp: 1}, {Op: isa.OpJAE, Disp: 1},
		} {
			cs = append(cs, execCase{name: fmt.Sprintf("%s/%d,%d", op.Op.Name(), int64(p[0]), int64(p[1])), a: p[0], b: p[1], op: op})
		}
	}
	return cs
}

// TestStepMatchesBlock: single-stepping and block execution of every
// executor kind agree on registers, flags, RIP, Insts, Cycles, memory and
// fault shape.
func TestStepMatchesBlock(t *testing.T) {
	covered := map[kind]bool{}
	for _, tc := range execCases() {
		covered[kinds[tc.op.Op]] = true
		t.Run(tc.name, func(t *testing.T) {
			block, step := tc.run(t, false), tc.run(t, true)
			if block != step {
				t.Errorf("block and step differ:\nblock %+v\nstep  %+v", block, step)
			}
			if block.Insts == 0 {
				t.Error("nothing retired")
			}
			if strings.Contains(tc.name, "fault") && !block.FaultHasReason {
				t.Errorf("no fault: %+v", block)
			}
		})
	}
	for k := kBad + 1; k <= kRET; k++ {
		if !covered[k] {
			t.Errorf("kind %d has no case", k)
		}
	}
}

// TestExecBlockLoopMakesNoCall: execBlock's loop calls execSlow, from one
// place, and otherwise only helpers the compiler inlines, so no value in
// the loop lives across a call and the dispatch keeps rip, next and the
// record index in registers. A conversion is not a call.
func TestExecBlockLoopMakesNoCall(t *testing.T) {
	allowed := map[string]bool{
		"c.TLB.LoadPage": true, "c.TLB.StorePage": true, "c.TLB.Current": true,
		"c.setFlags": true, "b2u": true, "linked": true, "mm.CodeWrites": true,
		"binary.LittleEndian.Uint64": true, "binary.LittleEndian.PutUint64": true,
		"uint64": true, "int64": true, "uint8": true, "int": true,
	}
	f, err := parser.ParseFile(token.NewFileSet(), "exec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ast.RangeStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "execBlock" {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok && loop == nil {
					loop = r
				}
				return loop == nil
			})
		}
	}
	if loop == nil {
		t.Fatal("no range loop in execBlock")
	}
	slow := 0
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch name := exprName(call.Fun); {
		case name == "c.execSlow":
			slow++
		case !allowed[name]:
			t.Errorf("execBlock's loop calls %s", name)
		}
		return true
	})
	if slow != 1 {
		t.Errorf("execBlock's loop calls execSlow from %d places, want 1", slow)
	}
}

// exprName renders an identifier or a selector chain such as c.TLB.Current.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return fmt.Sprintf("%T", e)
}
