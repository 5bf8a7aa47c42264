// Package isa defines AK64, the instruction-set architecture used by the
// Adelie reproduction in place of x86-64.
//
// AK64 deliberately mirrors the x86-64 properties the paper depends on:
//
//   - variable-length instructions with a 1-byte RET (0xC3), so decoding at
//     arbitrary byte offsets yields unintended instruction sequences — the
//     raw material of ROP gadgets;
//   - a RIP-relative addressing mode with a signed 32-bit displacement, so
//     position-independent code can only reach data within ±2 GB of the
//     instruction pointer (this is why GOTs must sit near the code that
//     uses them, and why separate GOT pairs exist for the movable and
//     immovable module parts);
//   - direct call/jmp with a signed 32-bit relative offset only — 64-bit
//     targets require an indirect call through a register or memory,
//     exactly the constraint that makes retpolines and GOT-indirect calls
//     necessary;
//   - 64-bit immediates available only in a dedicated long MOV form, the
//     analogue of x86-64's movabs that absolute-address (non-PIC) code
//     relies on.
//
// The package provides the instruction model, binary encoder/decoder and a
// disassembler. Execution lives in internal/cpu.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Reg names an AK64 general-purpose register. The first sixteen follow the
// x86-64 naming so that code transplanted from the paper's figures (e.g.
// "xor %r11, (%rsp)") reads the same.
type Reg uint8

// General-purpose registers. RSP is the stack pointer; RBP is the frame
// pointer recycled by the static-function prologue variant (paper Fig. 3b).
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String returns the conventional register mnemonic.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Valid reports whether r names an existing register.
func (r Reg) Valid() bool { return r < NumRegs }

// ArgRegs is the order in which integer arguments are passed, mirroring the
// System V AMD64 convention the paper's wrappers assume (up to six register
// arguments; see §3.4 "Stacks").
var ArgRegs = [6]Reg{RDI, RSI, RDX, RCX, R8, R9}

// Op is an AK64 opcode byte.
type Op byte

// Opcode space. Values are chosen so that common gadget terminators (RET)
// and ALU bytes resemble their x86-64 counterparts where a counterpart
// exists, which keeps disassembly listings recognizable next to the paper.
const (
	// One-byte instructions.
	OpNOP Op = 0x90 // no operation
	OpRET Op = 0xC3 // pop rip
	OpHLT Op = 0xF4 // stop the virtual CPU (return to host)

	// Stack (2 bytes: op, reg).
	OpPUSH Op = 0x50 // push r1
	OpPOP  Op = 0x58 // pop r1

	// Moves.
	OpMOVABS Op = 0xB8 // r1 = imm64                      (10 bytes)
	OpMOVI   Op = 0xB9 // r1 = sign-extended imm32        (6 bytes)
	OpMOV    Op = 0x89 // r1 = r2                         (2 bytes)
	OpLOAD   Op = 0x8B // r1 = mem64[r2 + disp32]         (6 bytes)
	OpSTORE  Op = 0x88 // mem64[r2 + disp32] = r1         (6 bytes)
	OpLEARIP Op = 0x8D // r1 = rip + disp32               (6 bytes)
	OpLDRIP  Op = 0x8E // r1 = mem64[rip + disp32]        (6 bytes)
	OpSTRIP  Op = 0x8F // mem64[rip + disp32] = r1        (6 bytes)

	// ALU, register-register (2 bytes: op, regpair).
	OpADD  Op = 0x01 // r1 += r2
	OpSUB  Op = 0x29 // r1 -= r2
	OpXOR  Op = 0x31 // r1 ^= r2
	OpAND  Op = 0x21 // r1 &= r2
	OpOR   Op = 0x09 // r1 |= r2
	OpCMP  Op = 0x39 // flags = compare(r1, r2)
	OpTEST Op = 0x85 // flags = compare(r1&r2, 0)
	OpIMUL Op = 0x69 // r1 *= r2
	OpUDIV Op = 0x6B // r1 /= r2 (unsigned; divide by zero faults)

	// ALU, immediate (6 bytes: op, reg, imm32 sign-extended).
	OpADDI Op = 0x81 // r1 += imm32
	OpSUBI Op = 0x82 // r1 -= imm32
	OpCMPI Op = 0x83 // flags = compare(r1, imm32)
	OpANDI Op = 0x84 // r1 &= imm32
	OpXORI Op = 0x86 // r1 ^= imm32

	// Shifts (3 bytes: op, reg, imm8).
	OpSHLI Op = 0x87 // r1 <<= imm8
	OpSHRI Op = 0x8A // r1 >>= imm8 (logical)

	// XOR into memory: the return-address encryption primitive
	// ("xor %r11, (%rsp)" in paper Fig. 3b). 6 bytes: op, regpair, disp32.
	OpXORM Op = 0x35 // mem64[r2 + disp32] ^= r1

	// Control transfer.
	OpCALL  Op = 0xE8 // call rip+rel32                  (5 bytes)
	OpJMP   Op = 0xE9 // jmp rip+rel32                   (5 bytes)
	OpCALLR Op = 0xFA // call r1                         (2 bytes)
	OpCALLM Op = 0xFB // call mem64[rip + disp32]        (5 bytes) — GOT-indirect call
	OpJMPR  Op = 0xFC // jmp r1                          (2 bytes)
	OpJMPM  Op = 0xFD // jmp mem64[rip + disp32]         (5 bytes) — GOT-indirect jump

	// Conditional jumps, rel32 (5 bytes).
	OpJE  Op = 0x74
	OpJNE Op = 0x75
	OpJL  Op = 0x7C
	OpJGE Op = 0x7D
	OpJLE Op = 0x7E
	OpJG  Op = 0x7F
	OpJB  Op = 0x72 // unsigned below
	OpJAE Op = 0x73 // unsigned above-or-equal
)

// Inst is one decoded AK64 instruction.
type Inst struct {
	Op   Op
	R1   Reg   // first register operand (destination for two-operand forms)
	R2   Reg   // second register operand (source / base register)
	Imm  int64 // immediate for OpMOVABS/OpMOVI/ALU-immediate/shift forms
	Disp int32 // displacement for memory forms; relative offset for branches
	Len  int   // encoded length in bytes
}

// Lengths of each encoding class, in bytes.
const (
	lenOp1       = 1  // op
	lenOpReg     = 2  // op reg
	lenOpRegPair = 2  // op regpair
	lenOpRel32   = 5  // op rel32
	lenOpRegImm8 = 3  // op reg imm8
	lenOpRegD32  = 6  // op reg disp32/imm32
	lenOpPairD32 = 6  // op regpair disp32
	lenOpRegI64  = 10 // op reg imm64
)

// MaxInstLen is the longest possible AK64 encoding.
const MaxInstLen = lenOpRegI64

// class describes how an opcode's operands are encoded.
type class uint8

const (
	clInvalid  class = iota
	clNone           // op
	clReg            // op reg
	clRegPair        // op (r2<<4 | r1)
	clRegImm64       // op reg imm64le
	clRegImm32       // op reg imm32le (sign-extended into Imm)
	clRegImm8        // op reg imm8 (zero-extended into Imm)
	clPairDisp       // op (r2<<4 | r1) disp32le
	clRegDisp        // op reg disp32le
	clRel32          // op rel32le (into Disp)
	clDisp32         // op disp32le (into Disp; RIP-relative memory operand)
)

var opClasses = map[Op]class{
	OpNOP: clNone, OpRET: clNone, OpHLT: clNone,
	OpPUSH: clReg, OpPOP: clReg,
	OpMOVABS: clRegImm64,
	OpMOVI:   clRegImm32,
	OpMOV:    clRegPair,
	OpLOAD:   clPairDisp, OpSTORE: clPairDisp, OpXORM: clPairDisp,
	OpLEARIP: clRegDisp, OpLDRIP: clRegDisp, OpSTRIP: clRegDisp,
	OpADD: clRegPair, OpSUB: clRegPair, OpXOR: clRegPair, OpAND: clRegPair,
	OpOR: clRegPair, OpCMP: clRegPair, OpTEST: clRegPair, OpIMUL: clRegPair,
	OpUDIV: clRegPair,
	OpADDI: clRegImm32, OpSUBI: clRegImm32, OpCMPI: clRegImm32,
	OpANDI: clRegImm32, OpXORI: clRegImm32,
	OpSHLI: clRegImm8, OpSHRI: clRegImm8,
	OpCALL: clRel32, OpJMP: clRel32,
	OpCALLR: clReg, OpJMPR: clReg,
	OpCALLM: clDisp32, OpJMPM: clDisp32,
	OpJE: clRel32, OpJNE: clRel32, OpJL: clRel32, OpJGE: clRel32,
	OpJLE: clRel32, OpJG: clRel32, OpJB: clRel32, OpJAE: clRel32,
}

var opNames = map[Op]string{
	OpNOP: "nop", OpRET: "ret", OpHLT: "hlt",
	OpPUSH: "push", OpPOP: "pop",
	OpMOVABS: "movabs", OpMOVI: "mov", OpMOV: "mov",
	OpLOAD: "mov", OpSTORE: "mov",
	OpLEARIP: "lea", OpLDRIP: "mov", OpSTRIP: "mov",
	OpADD: "add", OpSUB: "sub", OpXOR: "xor", OpAND: "and", OpOR: "or",
	OpCMP: "cmp", OpTEST: "test", OpIMUL: "imul", OpUDIV: "udiv",
	OpADDI: "add", OpSUBI: "sub", OpCMPI: "cmp", OpANDI: "and", OpXORI: "xor",
	OpSHLI: "shl", OpSHRI: "shr", OpXORM: "xor",
	OpCALL: "call", OpJMP: "jmp", OpCALLR: "call", OpCALLM: "call",
	OpJMPR: "jmp", OpJMPM: "jmp",
	OpJE: "je", OpJNE: "jne", OpJL: "jl", OpJGE: "jge",
	OpJLE: "jle", OpJG: "jg", OpJB: "jb", OpJAE: "jae",
}

// Name returns the opcode mnemonic, or a hex byte if the opcode is invalid.
func (o Op) Name() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("(bad 0x%02x)", byte(o))
}

// Valid reports whether o is a defined AK64 opcode.
func (o Op) Valid() bool { _, ok := opClasses[o]; return ok }

// IsBranch reports whether o transfers control (conditionally or not).
func (o Op) IsBranch() bool {
	switch o {
	case OpCALL, OpJMP, OpCALLR, OpCALLM, OpJMPR, OpJMPM, OpRET,
		OpJE, OpJNE, OpJL, OpJGE, OpJLE, OpJG, OpJB, OpJAE:
		return true
	}
	return false
}

// IsIndirectBranch reports whether o is an indirect call or jump — the
// instruction class the Spectre-V2 retpoline mitigation replaces.
func (o Op) IsIndirectBranch() bool {
	switch o {
	case OpCALLR, OpCALLM, OpJMPR, OpJMPM:
		return true
	}
	return false
}

// ErrTruncated is returned by Decode when the byte slice ends mid-instruction.
var ErrTruncated = fmt.Errorf("isa: truncated instruction")

// InvalidOpcodeError reports an undefined opcode byte.
type InvalidOpcodeError byte

func (e InvalidOpcodeError) Error() string {
	return fmt.Sprintf("isa: invalid opcode 0x%02x", byte(e))
}

// InvalidRegError reports a register operand outside the register file.
type InvalidRegError uint8

func (e InvalidRegError) Error() string {
	return fmt.Sprintf("isa: invalid register %d", uint8(e))
}

// Decode decodes a single instruction from the start of b.
//
// Decoding never looks beyond the bytes the instruction's own class
// requires, so — like on x86-64 — decoding a byte stream at a misaligned
// offset frequently yields a different but valid instruction sequence.
// The gadget scanner in internal/attack depends on this property.
func Decode(b []byte) (Inst, error) {
	if len(b) == 0 {
		return Inst{}, ErrTruncated
	}
	op := Op(b[0])
	cl, ok := opClasses[op]
	if !ok {
		return Inst{}, InvalidOpcodeError(b[0])
	}
	in := Inst{Op: op}
	need := encodedLen(cl)
	if len(b) < need {
		return Inst{}, ErrTruncated
	}
	in.Len = need
	switch cl {
	case clNone:
	case clReg:
		in.R1 = Reg(b[1])
		if !in.R1.Valid() {
			return Inst{}, InvalidRegError(b[1])
		}
	case clRegPair:
		in.R1 = Reg(b[1] & 0x0F)
		in.R2 = Reg(b[1] >> 4)
	case clRegImm64:
		in.R1 = Reg(b[1])
		if !in.R1.Valid() {
			return Inst{}, InvalidRegError(b[1])
		}
		in.Imm = int64(binary.LittleEndian.Uint64(b[2:10]))
	case clRegImm32:
		in.R1 = Reg(b[1])
		if !in.R1.Valid() {
			return Inst{}, InvalidRegError(b[1])
		}
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[2:6])))
	case clRegImm8:
		in.R1 = Reg(b[1])
		if !in.R1.Valid() {
			return Inst{}, InvalidRegError(b[1])
		}
		in.Imm = int64(b[2])
	case clPairDisp:
		in.R1 = Reg(b[1] & 0x0F)
		in.R2 = Reg(b[1] >> 4)
		in.Disp = int32(binary.LittleEndian.Uint32(b[2:6]))
	case clRegDisp:
		in.R1 = Reg(b[1])
		if !in.R1.Valid() {
			return Inst{}, InvalidRegError(b[1])
		}
		in.Disp = int32(binary.LittleEndian.Uint32(b[2:6]))
	case clRel32, clDisp32:
		in.Disp = int32(binary.LittleEndian.Uint32(b[1:5]))
	}
	return in, nil
}

func encodedLen(cl class) int {
	switch cl {
	case clNone:
		return lenOp1
	case clReg, clRegPair:
		return lenOpReg
	case clRegImm64:
		return lenOpRegI64
	case clRegImm32, clRegDisp:
		return lenOpRegD32
	case clRegImm8:
		return lenOpRegImm8
	case clPairDisp:
		return lenOpPairD32
	case clRel32, clDisp32:
		return lenOpRel32
	}
	return 0
}

// EncodedLen returns the encoded size in bytes of an instruction with
// opcode o, or 0 if o is invalid.
func EncodedLen(o Op) int { return encodedLen(opClasses[o]) }

// Append encodes in and appends the bytes to dst, returning the extended
// slice. It panics on an invalid opcode or register, which always indicates
// a bug in the code generator rather than bad input data.
func (in Inst) Append(dst []byte) []byte {
	cl, ok := opClasses[in.Op]
	if !ok {
		panic(InvalidOpcodeError(byte(in.Op)))
	}
	switch cl {
	case clNone:
		return append(dst, byte(in.Op))
	case clReg:
		mustReg(in.R1)
		return append(dst, byte(in.Op), byte(in.R1))
	case clRegPair:
		mustReg(in.R1)
		mustReg(in.R2)
		return append(dst, byte(in.Op), byte(in.R2)<<4|byte(in.R1))
	case clRegImm64:
		mustReg(in.R1)
		dst = append(dst, byte(in.Op), byte(in.R1))
		return binary.LittleEndian.AppendUint64(dst, uint64(in.Imm))
	case clRegImm32:
		mustReg(in.R1)
		dst = append(dst, byte(in.Op), byte(in.R1))
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm)))
	case clRegImm8:
		mustReg(in.R1)
		return append(dst, byte(in.Op), byte(in.R1), byte(in.Imm))
	case clPairDisp:
		mustReg(in.R1)
		mustReg(in.R2)
		dst = append(dst, byte(in.Op), byte(in.R2)<<4|byte(in.R1))
		return binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	case clRegDisp:
		mustReg(in.R1)
		dst = append(dst, byte(in.Op), byte(in.R1))
		return binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	case clRel32, clDisp32:
		dst = append(dst, byte(in.Op))
		return binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	}
	panic("isa: unreachable encoding class")
}

func mustReg(r Reg) {
	if !r.Valid() {
		panic(InvalidRegError(uint8(r)))
	}
}

// Encode returns the binary encoding of in.
func (in Inst) Encode() []byte { return in.Append(nil) }

// String disassembles the instruction using AT&T-flavoured syntax at an
// unknown address (RIP-relative operands are shown symbolically).
func (in Inst) String() string { return in.Disasm(0) }

// Disasm disassembles the instruction as it would appear at virtual address
// pc. Branch targets and RIP-relative operands are resolved against pc.
func (in Inst) Disasm(pc uint64) string {
	cl := opClasses[in.Op]
	name := in.Op.Name()
	next := pc + uint64(in.Len)
	switch cl {
	case clNone:
		return name
	case clReg:
		switch in.Op {
		case OpCALLR, OpJMPR:
			return fmt.Sprintf("%s *%%%s", name, in.R1)
		}
		return fmt.Sprintf("%s %%%s", name, in.R1)
	case clRegPair:
		switch in.Op {
		case OpMOV, OpADD, OpSUB, OpXOR, OpAND, OpOR, OpCMP, OpTEST, OpIMUL, OpUDIV:
			return fmt.Sprintf("%s %%%s, %%%s", name, in.R2, in.R1)
		}
		return fmt.Sprintf("%s %%%s, %%%s", name, in.R2, in.R1)
	case clRegImm64, clRegImm32:
		return fmt.Sprintf("%s $%#x, %%%s", name, uint64(in.Imm), in.R1)
	case clRegImm8:
		return fmt.Sprintf("%s $%d, %%%s", name, in.Imm, in.R1)
	case clPairDisp:
		switch in.Op {
		case OpLOAD:
			return fmt.Sprintf("%s %d(%%%s), %%%s", name, in.Disp, in.R2, in.R1)
		case OpSTORE, OpXORM:
			return fmt.Sprintf("%s %%%s, %d(%%%s)", name, in.R1, in.Disp, in.R2)
		}
	case clRegDisp:
		target := next + uint64(int64(in.Disp))
		switch in.Op {
		case OpSTRIP:
			return fmt.Sprintf("%s %%%s, %#x(%%rip)", name, in.R1, target)
		}
		return fmt.Sprintf("%s %#x(%%rip), %%%s", name, target, in.R1)
	case clRel32:
		return fmt.Sprintf("%s %#x", name, next+uint64(int64(in.Disp)))
	case clDisp32:
		return fmt.Sprintf("%s *%#x(%%rip)", name, next+uint64(int64(in.Disp)))
	}
	return name
}
