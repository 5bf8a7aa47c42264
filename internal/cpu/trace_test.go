package cpu

import (
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// Trace tests: a wrapped call's path of blocks, natives and returns runs
// as one trace, and whatever ends a run early leaves it where per-block
// chaining would be, with the same counters. See superblock.go.

// natVA is where trace tests register their natives: mapped executable,
// past their code.
const natVA = codeBase + 0x800

// callProgram is main: CALL f; ADDI rax,1; CALL nat; ADDI rax,2; CALL f;
// ADDI rax,4; RET, with f: ADDI rbx,1; RET. Its blocks run as one trace
// with two direct calls, three returns (one polymorphic: f returns to
// two call sites) and a native.
func callProgram() []isa.Inst {
	a := newAsm()
	a.br(isa.OpCALL, "f")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 1})
	a.ins(isa.Inst{Op: isa.OpCALL, Disp: 0}) // to natVA, set below
	nat := len(a.code) - 1
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 2})
	a.br(isa.OpCALL, "f")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 4},
		isa.Inst{Op: isa.OpRET})
	a.label("f")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RBX, Imm: 1},
		isa.Inst{Op: isa.OpRET})
	code := a.build()
	code[nat].Disp = int32(natVA - (codeBase + uint64(a.offset(nat+1))))
	return code
}

// traceState is what a run leaves that a trace must not change.
type traceState struct {
	Regs                  [isa.NumRegs]uint64
	RIP                   uint64
	Insts, Cycles, Blocks uint64
	Chained, Indirect     uint64
	Err                   string
}

func stateOf(c *CPU, err error) traceState {
	s := traceState{Regs: c.Regs, RIP: c.RIP, Insts: c.Insts, Cycles: c.Cycles, Blocks: c.Blocks,
		Chained: c.ChainedBlocks, Indirect: c.IndirectChained}
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

// traceVsBlocks runs code `runs` times on a chained vCPU, where traces
// form and run, and on one kept block by block (a sampler that never
// fires keeps traces off), with native(c, run) registered at natVA on
// each, and requires the same registers, RIP, counters and error after
// every run. It returns the chained vCPU.
func traceVsBlocks(t *testing.T, code []isa.Inst, runs int, native func(c *CPU, run int) error) *CPU {
	t.Helper()
	fullMode(t)
	var cpus [2]*CPU
	var run int
	for i := range cpus {
		c := machine(t, code)
		c.RegisterNative(natVA, &Native{Name: "nat", Cost: 3, Fn: func(c *CPU) error { return native(c, run) }})
		cpus[i] = c
	}
	cpus[1].SetSampler(1<<62, func(uint64) { t.Error("sampler fired") })
	for run = 0; run < runs; run++ {
		var got [2]traceState
		for i, c := range cpus {
			c.Regs[isa.RSP] = stackTop
			_, err := c.Call(codeBase)
			got[i] = stateOf(c, err)
		}
		if got[0] != got[1] {
			t.Fatalf("run %d: traced and block by block differ:\ntraced %+v\nblocks %+v", run, got[0], got[1])
		}
	}
	return cpus[0]
}

// TestTraceRunsWrappedCall: the call program fuses into one trace on its
// entry block and a warm run retires every block through it with the
// counters of per-block chaining.
func TestTraceRunsWrappedCall(t *testing.T) {
	c := traceVsBlocks(t, callProgram(), 2, func(*CPU, int) error { return nil })
	tr, ok := traceAt(t, c, codeBase)
	if !ok || len(tr.parts) != 6 || len(tr.natives) != 1 {
		t.Fatalf("trace = %+v, valid %v; want one valid 6-block trace with a native", tr, ok)
	}
	// A third run: the polymorphic return of f misses its cache twice,
	// as it does block by block, and the trace replays both misses.
	traceVsBlocks(t, callProgram(), 3, func(*CPU, int) error { return nil })
}

// TestTraceNativeRemaps: a native that remaps ends the run at its
// return, and the return resolves through the dispatch path as block by
// block. The native moves the data page to a fresh frame and reads it
// back, so it must see the new mapping, as it does between blocks.
func TestTraceNativeRemaps(t *testing.T) {
	c := traceVsBlocks(t, callProgram(), 4, func(c *CPU, run int) error {
		if _, err := c.load64(dataBase); err != nil || run != 2 {
			return err // run 2 remaps; the others warm the TLB
		}
		if _, err := c.AS.Unmap(dataBase); err != nil {
			return err
		}
		if _, err := c.AS.MapRegion(dataBase, 1, mm.FlagWrite); err != nil {
			return err
		}
		if err := c.AS.Write64(dataBase, 0xfeed); err != nil {
			return err
		}
		v, err := c.load64(dataBase)
		c.Regs[isa.RDX] = v
		return err
	})
	if got := c.Regs[isa.RDX]; got != 0xfeed {
		t.Fatalf("the native read %#x after remapping, want 0xfeed", got)
	}
	// The run after the remap forms its traces again under the new
	// generation (the remap's own run split the path at the native).
	if tr, ok := traceAt(t, c, codeBase); !ok || tr.gen != c.AS.Generation() {
		t.Fatalf("no trace formed again after the remap: %+v, valid %v", tr, ok)
	}
}

// TestTraceAliasStoreIntoLaterBlock: a store through a writable alias of
// the code frame into the immediate of a block later on the trace ends
// the run at the next boundary, and the new bytes run, as block by block.
func TestTraceAliasStoreIntoLaterBlock(t *testing.T) {
	// A: load the store pointer from the data page; store rcx there;
	//    CALL f.  B (after the call): MOVABS r10, imm; ADD rax, r10; RET.
	// The pointer is a data word on runs 0-1 and, on run 2, B's
	// immediate through the alias.
	const alias = dataBase + 8*mm.PageSize
	a := newAsm()
	a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(dataBase)},
		isa.Inst{Op: isa.OpLOAD, R1: isa.R9, R2: isa.RBX},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RCX, Imm: 40},
		isa.Inst{Op: isa.OpSTORE, R1: isa.RCX, R2: isa.R9})
	a.br(isa.OpCALL, "f")
	imm := a.offset(len(a.code)) + 2
	a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.R10, Imm: 1},
		isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.R10},
		isa.Inst{Op: isa.OpRET})
	a.label("f")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 100},
		isa.Inst{Op: isa.OpRET})
	code := a.build()
	fullMode(t)
	var cpus [2]*CPU
	for i := range cpus {
		c := machine(t, code)
		frame, _, _ := c.AS.Lookup(codeBase)
		if err := c.AS.Map(alias, frame, mm.FlagWrite); err != nil {
			t.Fatal(err)
		}
		cpus[i] = c
	}
	cpus[1].SetSampler(1<<62, func(uint64) { t.Error("sampler fired") })
	for run := 0; run < 4; run++ {
		var got [2]traceState
		for i, c := range cpus {
			ptr := uint64(dataBase + 64)
			if run == 2 {
				ptr = alias + uint64(imm)
				if _, ok := traceAt(t, c, codeBase); !ok && i == 0 {
					t.Fatal("no trace before the alias store")
				}
			}
			if err := c.AS.Write64(dataBase, ptr); err != nil {
				t.Fatal(err)
			}
			c.Regs[isa.RSP], c.Regs[isa.RAX] = stackTop, 0
			_, err := c.Call(codeBase)
			got[i] = stateOf(c, err)
		}
		if got[0] != got[1] {
			t.Fatalf("run %d: traced and block by block differ:\ntraced %+v\nblocks %+v", run, got[0], got[1])
		}
		if want := uint64(101); run < 2 && got[0].Regs[isa.RAX] != want {
			t.Fatalf("run %d: rax = %d, want %d", run, got[0].Regs[isa.RAX], want)
		}
		if want := uint64(140); run >= 2 && got[0].Regs[isa.RAX] != want {
			t.Fatalf("run %d: rax = %d, want %d (the store into B did not take)", run, got[0].Regs[isa.RAX], want)
		}
	}
}

// TestTraceNativeNestedCall: a native that calls back into the vCPU runs
// a loop trace underneath — other laps, parts and chain depth — and the
// outer trace goes on from its own state when the native returns.
func TestTraceNativeNestedCall(t *testing.T) {
	// callProgram, then loop: ADDI rdx,1; SUBI rcx,1; CMPI rcx,0;
	// JNE loop; RET, which the native calls twice, the second time for
	// more laps than one chain allows.
	a := newAsm()
	a.ins(callProgram()...)
	a.label("loop")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RDX, Imm: 1},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
	a.br(isa.OpJNE, "loop")
	a.ins(isa.Inst{Op: isa.OpRET})
	code := a.build()
	loopVA := codeBase + uint64(a.offset(a.labels["loop"]))
	inTrace := false
	c := traceVsBlocks(t, code, 4, func(c *CPU, run int) error {
		inTrace = inTrace || c.run.t != nil
		rax, rcx := c.Regs[isa.RAX], c.Regs[isa.RCX]
		for _, laps := range []uint64{5, 70} {
			c.Regs[isa.RCX] = laps
			if _, err := c.Call(loopVA); err != nil {
				return err
			}
		}
		c.Regs[isa.RAX], c.Regs[isa.RCX] = rax, rcx
		return nil
	})
	if !inTrace {
		t.Fatal("the native never ran inside a trace; the test exercised nothing")
	}
	if tr, ok := traceAt(t, c, loopVA); !ok || !tr.loop {
		t.Fatalf("the nested call formed no loop trace: %+v, valid %v", tr, ok)
	}
}

// TestTraceNativeReturnsElsewhere: a native that returns to a VA other
// than the one the trace recorded ends the run there, and execution goes
// on at that VA as block by block.
func TestTraceNativeReturnsElsewhere(t *testing.T) {
	code := callProgram()
	// The second CALL f: returning there skips ADDI rax,2.
	elsewhere := codeBase + uint64(len(encode(code[:4]...)))
	c := traceVsBlocks(t, code, 5, func(c *CPU, run int) error {
		if run == 3 {
			return c.AS.Write64(c.Regs[isa.RSP], elsewhere)
		}
		return nil
	})
	if _, ok := traceAt(t, c, codeBase); !ok {
		t.Fatal("no trace")
	}
	// Four runs add 7 each; the fifth skips the ADDI rax,2.
	if got := c.Regs[isa.RAX]; got != 33 {
		t.Fatalf("rax = %d after the last run, want 33", got)
	}
}

// TestTraceBecomesLoop: a trace recorded on a loop's one-trip run goes
// straight through its head block; when a later run leaves it for the
// head again, it forms again as a loop, and every run matches block by
// block.
func TestTraceBecomesLoop(t *testing.T) {
	fullMode(t)
	a := newAsm()
	a.label("top")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
	a.br(isa.OpJNE, "top")
	a.ins(isa.Inst{Op: isa.OpRET})
	code := a.build()
	var cpus [2]*CPU
	for i := range cpus {
		cpus[i] = machine(t, code)
	}
	cpus[1].SetSampler(1<<62, func(uint64) { t.Error("sampler fired") })
	for run, trips := range []uint64{1, 1, 3, 100, 2} {
		var got [2]traceState
		for i, c := range cpus {
			c.Regs[isa.RSP], c.Regs[isa.RCX] = stackTop, trips
			_, err := c.Call(codeBase)
			got[i] = stateOf(c, err)
		}
		if got[0] != got[1] {
			t.Fatalf("run %d: traced and block by block differ:\ntraced %+v\nblocks %+v", run, got[0], got[1])
		}
		tr, ok := traceAt(t, cpus[0], codeBase)
		if !ok || tr.loop != (run >= 2) {
			t.Fatalf("run %d: trace %+v, valid %v; want a loop from the first multi-trip run on", run, tr, ok)
		}
	}
}
