package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// allOps lists every defined opcode for exhaustive encode/decode coverage.
var allOps = []Op{
	OpNOP, OpRET, OpHLT, OpPUSH, OpPOP, OpMOVABS, OpMOVI, OpMOV,
	OpLOAD, OpSTORE, OpLEARIP, OpLDRIP, OpSTRIP,
	OpADD, OpSUB, OpXOR, OpAND, OpOR, OpCMP, OpTEST, OpIMUL, OpUDIV,
	OpADDI, OpSUBI, OpCMPI, OpANDI, OpXORI, OpSHLI, OpSHRI, OpXORM,
	OpCALL, OpJMP, OpCALLR, OpCALLM, OpJMPR, OpJMPM,
	OpJE, OpJNE, OpJL, OpJGE, OpJLE, OpJG, OpJB, OpJAE,
}

// canonicalize zeroes the operand fields an opcode's encoding does not
// carry, producing the instruction Decode should return.
func canonicalize(in Inst) Inst {
	out := Inst{Op: in.Op, Len: EncodedLen(in.Op)}
	switch opClasses[in.Op] {
	case clReg:
		out.R1 = in.R1
	case clRegPair:
		out.R1, out.R2 = in.R1, in.R2
	case clRegImm64:
		out.R1, out.Imm = in.R1, in.Imm
	case clRegImm32:
		out.R1, out.Imm = in.R1, int64(int32(in.Imm))
	case clRegImm8:
		out.R1, out.Imm = in.R1, int64(uint8(in.Imm))
	case clPairDisp:
		out.R1, out.R2, out.Disp = in.R1, in.R2, in.Disp
	case clRegDisp:
		out.R1, out.Disp = in.R1, in.Disp
	case clRel32, clDisp32:
		out.Disp = in.Disp
	}
	return out
}

func TestEncodeDecodeRoundTripAllOpcodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range allOps {
		for i := 0; i < 32; i++ {
			in := Inst{
				Op:   op,
				R1:   Reg(rng.Intn(NumRegs)),
				R2:   Reg(rng.Intn(NumRegs)),
				Imm:  rng.Int63() - rng.Int63(),
				Disp: int32(rng.Uint32()),
			}
			want := canonicalize(in)
			enc := in.Encode()
			if len(enc) != EncodedLen(op) {
				t.Fatalf("%s: encoded length %d, want %d", op.Name(), len(enc), EncodedLen(op))
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", op.Name(), err)
			}
			if got != want {
				t.Fatalf("%s: round trip mismatch\n got %+v\nwant %+v", op.Name(), got, want)
			}
		}
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	// Collect bytes that are NOT opcodes.
	defined := map[byte]bool{}
	for _, op := range allOps {
		defined[byte(op)] = true
	}
	checked := 0
	for b := 0; b < 256; b++ {
		if defined[byte(b)] {
			continue
		}
		buf := []byte{byte(b), 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := Decode(buf); err == nil {
			t.Fatalf("opcode 0x%02x should be invalid", b)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no invalid opcodes checked")
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, op := range allOps {
		want := EncodedLen(op)
		if want == 1 {
			continue
		}
		full := Inst{Op: op}.Encode()
		for n := 0; n < want; n++ {
			if _, err := Decode(full[:n]); err == nil {
				t.Fatalf("%s: decode of %d/%d bytes should fail", op.Name(), n, want)
			}
		}
	}
	if _, err := Decode(nil); err != ErrTruncated {
		t.Fatalf("Decode(nil) = %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsInvalidRegister(t *testing.T) {
	for _, op := range []Op{OpPUSH, OpPOP, OpMOVABS, OpMOVI, OpLEARIP, OpSHLI} {
		buf := make([]byte, MaxInstLen)
		buf[0] = byte(op)
		buf[1] = 0x1F // register 31: out of range
		if _, err := Decode(buf); err == nil {
			t.Fatalf("%s with register 31 should fail to decode", op.Name())
		}
	}
}

// TestQuickRoundTrip property: for any operand values, Encode then Decode
// yields the canonical instruction.
func TestQuickRoundTrip(t *testing.T) {
	f := func(opIdx uint8, r1, r2 uint8, imm int64, disp int32) bool {
		op := allOps[int(opIdx)%len(allOps)]
		in := Inst{
			Op: op, R1: Reg(r1 % NumRegs), R2: Reg(r2 % NumRegs),
			Imm: imm, Disp: disp,
		}
		got, err := Decode(in.Encode())
		return err == nil && got == canonicalize(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeNeverPanics property: Decode tolerates arbitrary bytes.
// The gadget scanner decodes at every byte offset of module images, so this
// must hold for any input.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		in, err := Decode(b)
		if err != nil {
			return true
		}
		// A successful decode must report a length within the input.
		return in.Len >= 1 && in.Len <= len(b) && in.Len <= MaxInstLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestImmediateSignExtension(t *testing.T) {
	in := Inst{Op: OpMOVI, R1: RAX, Imm: -5}
	got, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != -5 {
		t.Fatalf("imm32 sign extension: got %d, want -5", got.Imm)
	}

	in = Inst{Op: OpADDI, R1: RBX, Imm: int64(int32(-1 << 31))}
	got, err = Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != int64(int32(-1<<31)) {
		t.Fatalf("imm32 min: got %d", got.Imm)
	}
}

func TestMovabsCarries64BitImmediate(t *testing.T) {
	const big = int64(0x7FEE_DDCC_BBAA_0102)
	in := Inst{Op: OpMOVABS, R1: R15, Imm: big}
	got, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Imm != big {
		t.Fatalf("imm64: got %#x, want %#x", got.Imm, big)
	}
}

func TestRetIsSingleByte(t *testing.T) {
	// The 1-byte RET is what makes misaligned decode yield gadgets; pin it.
	enc := Inst{Op: OpRET}.Encode()
	if len(enc) != 1 || enc[0] != 0xC3 {
		t.Fatalf("RET encoding = %x, want C3", enc)
	}
}

func TestBranchClassification(t *testing.T) {
	branches := map[Op]bool{
		OpCALL: true, OpJMP: true, OpCALLR: true, OpCALLM: true,
		OpJMPR: true, OpJMPM: true, OpRET: true,
		OpJE: true, OpJNE: true, OpJL: true, OpJGE: true,
		OpJLE: true, OpJG: true, OpJB: true, OpJAE: true,
	}
	indirect := map[Op]bool{OpCALLR: true, OpCALLM: true, OpJMPR: true, OpJMPM: true}
	for _, op := range allOps {
		if got := op.IsBranch(); got != branches[op] {
			t.Errorf("%s.IsBranch() = %v, want %v", op.Name(), got, branches[op])
		}
		if got := op.IsIndirectBranch(); got != indirect[op] {
			t.Errorf("%s.IsIndirectBranch() = %v, want %v", op.Name(), got, indirect[op])
		}
	}
}

func TestDisasmSmoke(t *testing.T) {
	cases := []struct {
		in   Inst
		pc   uint64
		want string
	}{
		{Inst{Op: OpRET}, 0, "ret"},
		{Inst{Op: OpPUSH, R1: RBP}, 0, "push %rbp"},
		{Inst{Op: OpMOV, R1: RAX, R2: RBX}, 0, "mov %rbx, %rax"},
		{Inst{Op: OpXORM, R1: R11, R2: RSP, Disp: 0}, 0, "xor %r11, 0(%rsp)"},
		{Inst{Op: OpCALLR, R1: RAX}, 0, "call *%rax"},
	}
	for _, c := range cases {
		c.in.Len = EncodedLen(c.in.Op)
		if got := c.in.Disasm(c.pc); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDisasmRelativeTargets(t *testing.T) {
	// call at 0x1000, rel32 = +0x20 → target = 0x1000 + 5 + 0x20 = 0x1025.
	in := Inst{Op: OpCALL, Disp: 0x20, Len: 5}
	got := in.Disasm(0x1000)
	if !strings.Contains(got, "0x1025") {
		t.Fatalf("Disasm = %q, want target 0x1025", got)
	}
}

func TestMisalignedDecodeYieldsDifferentStream(t *testing.T) {
	// Encode movabs with an immediate whose bytes themselves form
	// instructions; decoding at offset 2 must see a different stream.
	// This is the property ROP gadget discovery exploits.
	imm := int64(0)
	immBytes := []byte{byte(OpPUSH), byte(RAX), byte(OpRET), byte(OpNOP), byte(OpNOP), byte(OpNOP), byte(OpNOP), byte(OpNOP)}
	for i := 7; i >= 0; i-- {
		imm = imm<<8 | int64(immBytes[i])
	}
	code := Inst{Op: OpMOVABS, R1: RAX, Imm: imm}.Encode()

	in, err := Decode(code[2:])
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpPUSH || in.R1 != RAX {
		t.Fatalf("misaligned decode got %s, want push %%rax", in)
	}
	in2, err := Decode(code[2+in.Len:])
	if err != nil {
		t.Fatal(err)
	}
	if in2.Op != OpRET {
		t.Fatalf("second misaligned inst = %s, want ret", in2)
	}
}

func TestRegString(t *testing.T) {
	if RSP.String() != "rsp" || R11.String() != "r11" {
		t.Fatalf("register names wrong: %s %s", RSP, R11)
	}
	if Reg(200).Valid() {
		t.Fatal("register 200 should be invalid")
	}
}

func TestArgRegsOrder(t *testing.T) {
	want := [6]Reg{RDI, RSI, RDX, RCX, R8, R9}
	if ArgRegs != want {
		t.Fatalf("ArgRegs = %v, want SysV order %v", ArgRegs, want)
	}
}

func BenchmarkDecode(b *testing.B) {
	code := Inst{Op: OpLOAD, R1: RAX, R2: RBX, Disp: 128}.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(code); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	in := Inst{Op: OpLOAD, R1: RAX, R2: RBX, Disp: 128}
	buf := make([]byte, 0, MaxInstLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = in.Append(buf[:0])
	}
}
