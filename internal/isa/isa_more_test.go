package isa

import (
	"strings"
	"testing"
)

func TestEncodedLenMatchesEncoding(t *testing.T) {
	for _, op := range allOps {
		enc := Inst{Op: op}.Encode()
		if got := EncodedLen(op); got != len(enc) {
			t.Errorf("%s: EncodedLen %d, encoding %d bytes", op.Name(), got, len(enc))
		}
	}
	if EncodedLen(Op(0x00)) != 0 {
		t.Error("invalid opcode should report length 0")
	}
}

func TestOpValid(t *testing.T) {
	for _, op := range allOps {
		if !op.Valid() {
			t.Errorf("%s reported invalid", op.Name())
		}
	}
	if Op(0x00).Valid() || Op(0xFF).Valid() {
		t.Error("undefined opcodes reported valid")
	}
}

func TestOpNameFallback(t *testing.T) {
	if got := Op(0x02).Name(); !strings.Contains(got, "bad") {
		t.Errorf("invalid opcode name = %q", got)
	}
}

func TestEncodePanicsOnInvalidRegister(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding push of register 99 should panic")
		}
	}()
	_ = Inst{Op: OpPUSH, R1: Reg(99)}.Encode()
}

func TestEncodePanicsOnInvalidOpcode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding invalid opcode should panic")
		}
	}()
	_ = Inst{Op: Op(0x00)}.Encode()
}

func TestDisasmGotIndirectForms(t *testing.T) {
	in := Inst{Op: OpCALLM, Disp: 0x10, Len: 5}
	if got := in.Disasm(0x100); !strings.Contains(got, "*") || !strings.Contains(got, "(%rip)") {
		t.Errorf("callm disasm = %q", got)
	}
	in = Inst{Op: OpSTRIP, R1: RBX, Disp: -8, Len: 6}
	if got := in.Disasm(0x100); !strings.Contains(got, "%rbx") {
		t.Errorf("strip disasm = %q", got)
	}
}

// TestEncodingDensity documents the property the gadget analysis relies
// on: a large fraction of random byte windows decode as valid
// instructions, as on x86-64.
func TestEncodingDensity(t *testing.T) {
	valid := 0
	const total = 256
	buf := make([]byte, MaxInstLen)
	for b := 0; b < total; b++ {
		buf[0] = byte(b)
		if _, err := Decode(buf); err == nil {
			valid++
		}
	}
	// 44 defined opcodes out of 256 first bytes ≈ 17% density at the
	// first byte alone; misaligned decode multiplies opportunities.
	if valid < 30 {
		t.Fatalf("only %d/256 first bytes decode; ISA too sparse for ROP realism", valid)
	}
}
