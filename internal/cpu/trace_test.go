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
// each and setup(c, run), if set, called before each run. It requires
// the same registers, RIP, counters and error after every dispatch of
// every run: a trace must leave where per-block chaining ends its chain.
// It returns the chained vCPU.
func traceVsBlocks(t *testing.T, code []isa.Inst, runs int, setup func(c *CPU, run int), native func(c *CPU, run int) error) *CPU {
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
		for _, c := range cpus {
			c.Regs[isa.RSP] = stackTop
			if setup != nil {
				setup(c, run)
			}
			if err := c.Push(HostReturn); err != nil {
				t.Fatal(err)
			}
			c.RIP = codeBase
		}
		for n, done := 0, false; !done; n++ {
			var got [2]traceState
			for i, c := range cpus {
				halted, err := c.stepBlock()
				got[i], done = stateOf(c, err), halted || err != nil
			}
			if got[0] != got[1] {
				t.Fatalf("run %d, dispatch %d: traced and block by block differ:\ntraced %+v\nblocks %+v", run, n, got[0], got[1])
			}
		}
	}
	return cpus[0]
}

// noNative is a native that does nothing.
func noNative(*CPU, int) error { return nil }

// TestTraceRunsWrappedCall: the call program fuses into one trace on its
// entry block and a warm run retires every block through it with the
// counters of per-block chaining.
func TestTraceRunsWrappedCall(t *testing.T) {
	c := traceVsBlocks(t, callProgram(), 2, nil, noNative)
	tr, ok := traceAt(t, c, codeBase)
	if !ok || len(tr.parts) != 6 || len(tr.natives) != 1 {
		t.Fatalf("trace = %+v, valid %v; want one valid 6-block trace with a native", tr, ok)
	}
	// A third run: the polymorphic return of f misses its cache twice,
	// as it does block by block, and the trace replays both misses.
	traceVsBlocks(t, callProgram(), 3, nil, noNative)
}

// TestTraceNativeRemaps: a native that remaps ends the run at its
// return, and the return resolves through the dispatch path as block by
// block. The native moves the data page to a fresh frame and reads it
// back, so it must see the new mapping, as it does between blocks.
func TestTraceNativeRemaps(t *testing.T) {
	c := traceVsBlocks(t, callProgram(), 4, nil, func(c *CPU, run int) error {
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
	c := traceVsBlocks(t, code, 4, nil, func(c *CPU, run int) error {
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
	if tr, ok := traceAt(t, c, loopVA); !ok || tr.back < 0 {
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
	c := traceVsBlocks(t, code, 5, nil, func(c *CPU, run int) error {
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
		if !ok || (tr.back >= 0) != (run >= 2) {
			t.Fatalf("run %d: trace %+v, valid %v; want a loop from the first multi-trip run on", run, tr, ok)
		}
	}
}

// loopProgram is a call with a loop in its middle, as ext4_get_block's
// extent scan is:
//
//	entry: rax += 1; rbx = 0; r12 = dataBase; CALL nat
//	A:     movabs r10, imm; rax += r10; rbx += 1; if rbx == rsi goto out
//	B:     store r14 at the pointer in slot rcx of the table at
//	       dataBase; rax += 3; rcx -= 1; if rcx != 0 goto A
//	tail:  rax += 4; RET
//	out:   rax += 8; RET
//
// rcx holds the trips and rsi the trip that leaves from A (0: none). The
// native returns to A, so A, B and the tail are blocks of their own, and
// a path that runs them closes the loop at B's exit: a back edge from B
// to A, with the tail after it. It returns the code and the offset of
// A's imm.
func loopProgram() ([]isa.Inst, int) {
	a := newAsm()
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpMOVI, R1: isa.RBX, Imm: 0},
		isa.Inst{Op: isa.OpMOVABS, R1: isa.R12, Imm: int64(dataBase)},
		isa.Inst{Op: isa.OpCALL}) // to natVA, set below
	nat := len(a.code) - 1
	a.label("A")
	imm := a.offset(len(a.code)) + 2
	a.ins(isa.Inst{Op: isa.OpMOVABS, R1: isa.R10, Imm: 0},
		isa.Inst{Op: isa.OpADD, R1: isa.RAX, R2: isa.R10},
		isa.Inst{Op: isa.OpADDI, R1: isa.RBX, Imm: 1},
		isa.Inst{Op: isa.OpCMP, R1: isa.RBX, R2: isa.RSI})
	a.br(isa.OpJE, "out")
	a.ins(isa.Inst{Op: isa.OpMOV, R1: isa.R9, R2: isa.RCX},
		isa.Inst{Op: isa.OpSHLI, R1: isa.R9, Imm: 3},
		isa.Inst{Op: isa.OpADD, R1: isa.R9, R2: isa.R12},
		isa.Inst{Op: isa.OpLOAD, R1: isa.R9, R2: isa.R9},
		isa.Inst{Op: isa.OpSTORE, R1: isa.R14, R2: isa.R9},
		isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 3},
		isa.Inst{Op: isa.OpSUBI, R1: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCMPI, R1: isa.RCX, Imm: 0})
	a.br(isa.OpJNE, "A")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 4},
		isa.Inst{Op: isa.OpRET})
	a.label("out")
	a.ins(isa.Inst{Op: isa.OpADDI, R1: isa.RAX, Imm: 8},
		isa.Inst{Op: isa.OpRET})
	code := a.build()
	code[nat].Disp = int32(natVA - (codeBase + uint64(a.offset(nat+1))))
	return code, imm
}

// loopSlots is where loopProgram's stores land by default: slot i of
// the pointer table holds loopSlots+8i.
const loopSlots = dataBase + mm.PageSize

// loopRuns runs loopProgram through traceVsBlocks with trips[run] trips,
// leaving from A on trip leave[run] (0: none, and leave may be shorter
// than trips), and with native as its native. It returns the chained
// vCPU.
func loopRuns(t *testing.T, trips, leave []uint64, native func(c *CPU, run int) error) *CPU {
	t.Helper()
	code, _ := loopProgram()
	return traceVsBlocks(t, code, len(trips), func(c *CPU, run int) {
		if run == 0 {
			for i := range uint64(128) {
				if err := c.AS.Write64(dataBase+8*i, loopSlots+8*i); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Regs[isa.RCX], c.Regs[isa.RSI], c.Regs[isa.RAX] = trips[run], 0, 0
		if run < len(leave) {
			c.Regs[isa.RSI] = leave[run]
		}
	}, native)
}

// loopTraceOf returns the valid trace on codeBase and fails unless its
// back edge goes from B to A.
func loopTraceOf(t *testing.T, c *CPU) *trace {
	t.Helper()
	tr, ok := traceAt(t, c, codeBase)
	if !ok || tr.back != 1 || len(tr.parts) != 4 || tr.insts[tr.parts[2].start+tr.parts[2].n-1].k != kLoop {
		t.Fatalf("trace = %+v, valid %v; want entry, A, B looping back to A, tail", tr, ok)
	}
	return tr
}

// TestTraceLoopRecordedOnOneTrip: a call whose first run took one trip
// forms a straight trace, which the first run that loops leaves at B for
// A. Once B has a link to A the trace forms again with the back edge,
// keeps the tail, and runs every trip count from then on as per-block
// chaining does.
func TestTraceLoopRecordedOnOneTrip(t *testing.T) {
	trips := []uint64{1, 1, 2, 3, 4, 5, 6, 7, 8}
	c := loopRuns(t, trips[:2], nil, noNative)
	if tr, ok := traceAt(t, c, codeBase); !ok || tr.back >= 0 || len(tr.parts) != 4 {
		t.Fatalf("one-trip trace = %+v, valid %v; want the straight entry, A, B, tail", tr, ok)
	}
	c = loopRuns(t, trips, nil, noNative)
	loopTraceOf(t, c)
}

// TestTraceLoopRecordedOnManyTrips: a path that laps the loop it
// closed records it once, with its back edge, and records on past it.
func TestTraceLoopRecordedOnManyTrips(t *testing.T) {
	c := loopRuns(t, []uint64{3}, nil, noNative)
	loopTraceOf(t, c)
	loopTraceOf(t, loopRuns(t, []uint64{3, 1, 5, 2, 8, 3}, nil, noNative))
}

// TestTraceLoopLeavesFromHead: the loop's other exit, from A, leaves
// the trace on the lap it is taken, and the trace stays.
func TestTraceLoopLeavesFromHead(t *testing.T) {
	c := loopRuns(t, []uint64{3, 5, 5, 5, 2}, []uint64{0, 2, 1, 5, 0}, noNative)
	if got := c.Regs[isa.RAX]; got != 1+2*3+4 {
		t.Fatalf("rax = %d after the last run, want %d", got, 1+2*3+4)
	}
	loopTraceOf(t, c)
}

// TestTraceLoopChainBound: the chain bound stops a run in the middle of
// a lap, and the next dispatch goes on from there.
func TestTraceLoopChainBound(t *testing.T) {
	loopTraceOf(t, loopRuns(t, []uint64{3, 100, 40, 63, 64}, nil, noNative))
}

// TestTraceLoopAliasStore: B stores through a writable alias of the code
// frame into A's imm on a later lap of the loop trace; the run leaves at
// B's back edge, and A runs its new bytes from the next trip on.
func TestTraceLoopAliasStore(t *testing.T) {
	code, imm := loopProgram()
	trips := []uint64{3, 4, 5, 4, 4}
	c := traceVsBlocks(t, code, len(trips), func(c *CPU, run int) {
		if run == 0 {
			frame, _, _ := c.AS.Lookup(codeBase)
			if err := c.AS.Map(storeAlias, frame, mm.FlagWrite); err != nil {
				t.Fatal(err)
			}
		}
		if run == 2 && c.sampler == nil {
			loopTraceOf(t, c)
		}
		// On run 2 the slot of trip 3 (rcx 3) points at A's imm.
		for i := range uint64(128) {
			v := loopSlots + 8*i
			if run == 2 && i == 3 {
				v = storeAlias + uint64(imm)
			}
			if err := c.AS.Write64(dataBase+8*i, v); err != nil {
				t.Fatal(err)
			}
		}
		c.Regs[isa.RCX], c.Regs[isa.RSI], c.Regs[isa.RAX], c.Regs[isa.R14] = trips[run], 0, 0, 10
	}, noNative)
	// The last run adds A's new imm on each of its 4 trips.
	if got := c.Regs[isa.RAX]; got != 1+4*(3+10)+4 {
		t.Fatalf("rax = %d after the last run, want %d", got, 1+4*(3+10)+4)
	}
}

// TestTraceLoopNativeRemaps: the native before the loop remaps a data
// page on one run; that run leaves the trace after it, and the loop
// runs on under the new generation as per-block chaining runs it, in a
// loop trace of its own from then on.
func TestTraceLoopNativeRemaps(t *testing.T) {
	page, loopVA := uint64(dataBase+3*mm.PageSize), uint64(0)
	c := loopRuns(t, []uint64{3, 4, 5, 2, 3}, nil, func(c *CPU, run int) error {
		if run != 2 {
			return nil
		}
		if c.sampler == nil {
			loopVA = loopTraceOf(t, c).parts[1].va
		}
		if _, err := c.AS.Unmap(page); err != nil {
			return err
		}
		if _, err := c.AS.MapRegion(page, 1, mm.FlagWrite); err != nil {
			return err
		}
		return c.AS.Write64(page, 0xfeed)
	})
	if tr, ok := traceAt(t, c, loopVA); !ok || tr.back != 0 {
		t.Fatalf("no loop trace on A after the remap: %+v, valid %v", tr, ok)
	}
}
