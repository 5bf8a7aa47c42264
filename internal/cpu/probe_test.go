package cpu

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

// Probe accounting. Inside a trace every load and store first takes the
// TLB's resident word probe. A probe that declines counts nothing, and
// the access goes on through load64/store64/Push/Pop, which count it as
// an unarmed access is counted; a record that makes two accesses (a
// CALLM's GOT load and push, an XORM's load and store) counts a probe
// that hit once. TestProbeAccounting runs every record kind that touches
// memory inside a trace, its access once on a page the probe hits and
// once on each kind of page it declines on, and pins what the run
// counts: TLB hits and misses, cycles, RSP and the fault.

// Pages the probes decline on besides the data pages' L1 misses,
// straddles and a fork's shared copies. Each has an L1 set of its own.
const (
	probeRO       = mm.KernelBase + 0x504000 // read-only
	probeMMIO     = mm.KernelBase + 0x585000 // an MMIO region
	probeExec     = mm.KernelBase + 0x606000 // a writable alias of code page 3
	probeConflict = dataBase + mm.PageSize + l1Span
	probeNative   = codeBase + 2*mm.PageSize // a native that returns at once
	l1Span        = 256 * mm.PageSize        // VAs this far apart share an L1 set
)

// Words the tested access and the record's other access touch. The
// tested access warms up on probeHit; the other one always uses its
// quiet word, on a page the tested one never touches.
const (
	probeHit        = dataBase + mm.PageSize + 0x100
	probeQuietMem   = dataBase + 3*mm.PageSize + 0x100
	probeQuietStack = stackTop - 64
	probeForkWord   = dataBase + 2*mm.PageSize + 0x100
)

// probeCond is where the measured run's tested access lands.
type probeCond struct {
	name  string
	word  uint64
	evict bool // probeConflict evicts word's page from the L1 first
	flush bool // the TLB is flushed first: every access misses
	fork  bool // on a fork of the machine, whose page its parent shares
}

var probeConds = []probeCond{
	{name: "hit", word: probeHit},
	{name: "l1-miss", word: probeHit, evict: true},
	{name: "tlb-miss", word: probeHit, flush: true},
	{name: "mmio", word: probeMMIO + 0x100},
	{name: "straddle", word: dataBase + mm.PageSize - 4},
	{name: "read-only", word: probeRO + 0x100},
	{name: "fork-shared", word: probeForkWord, fork: true},
	{name: "exec", word: probeExec + 0x100},
}

// probeKind is a record kind under test. Its program is block A (one
// MOVI and a JMP to B) and block B, which starts with the record; a
// record that transfers control goes to fn (or, calling the native, to
// the instruction after it), which halts. The trace on A holds the
// record as kind k.
type probeKind struct {
	name  string
	k     kind
	stack bool // the tested access is the stack word, else the data word
	rip   bool // the data word is RIP-relative, so fixed by the code
	push  bool // the stack access pushes: RSP starts 8 above the word
}

var probeKinds = []probeKind{
	{name: "LOAD", k: kLOAD},
	{name: "STORE", k: kSTORE},
	{name: "LDRIP", k: kLDRIP, rip: true},
	{name: "STRIP", k: kSTRIP, rip: true},
	{name: "XORM", k: kXORM},
	{name: "PUSH", k: kPUSH, stack: true, push: true},
	{name: "POP", k: kPOP, stack: true},
	{name: "CALL", k: kCALL, stack: true, push: true}, // to the native, which pops
	{name: "CALLR", k: kCALLR, stack: true, push: true},
	{name: "CALLM/got", k: kCALLM, rip: true},
	{name: "CALLM/push", k: kCALLM, stack: true, rip: true, push: true},
	{name: "JMPM", k: kJMPM, rip: true},
	{name: "RET", k: kRET, stack: true}, // to HostReturn, at the trace's end
	{name: "kCallEdge", k: kCallEdge, stack: true, push: true},
	{name: "kRetEdge", k: kRetEdge, stack: true},
}

// program assembles pk's code with its RIP-relative word at mem, and
// returns it with the record's VA, fn's VA and the VA after the record.
func (pk probeKind) program(mem uint64) (code []isa.Inst, rec, fn, after uint64) {
	a := newAsm()
	a.ins(isa.Inst{Op: isa.OpMOVI, R1: isa.RAX, Imm: 1})
	a.br(isa.OpJMP, "b")
	a.label("b")
	at := len(a.code)
	switch pk.name {
	case "LOAD":
		a.ins(isa.Inst{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RSI})
	case "STORE":
		a.ins(isa.Inst{Op: isa.OpSTORE, R1: isa.RDI, R2: isa.RSI})
	case "LDRIP":
		a.ins(isa.Inst{Op: isa.OpLDRIP, R1: isa.RAX})
	case "STRIP":
		a.ins(isa.Inst{Op: isa.OpSTRIP, R1: isa.RDI})
	case "XORM":
		a.ins(isa.Inst{Op: isa.OpXORM, R1: isa.RDI, R2: isa.RSI})
	case "PUSH":
		a.ins(isa.Inst{Op: isa.OpPUSH, R1: isa.RDI})
	case "POP":
		a.ins(isa.Inst{Op: isa.OpPOP, R1: isa.RAX})
	case "CALL":
		a.ins(isa.Inst{Op: isa.OpCALL})
	case "CALLR":
		a.ins(isa.Inst{Op: isa.OpCALLR, R1: isa.R12})
	case "CALLM/got", "CALLM/push":
		a.ins(isa.Inst{Op: isa.OpCALLM})
	case "JMPM":
		a.ins(isa.Inst{Op: isa.OpJMPM})
	case "RET", "kRetEdge":
		a.ins(isa.Inst{Op: isa.OpRET})
	case "kCallEdge":
		a.br(isa.OpCALL, "fn")
	}
	a.ins(isa.Inst{Op: isa.OpHLT})
	a.label("fn")
	a.ins(isa.Inst{Op: isa.OpHLT})
	code = a.build()
	rec, after = codeBase+uint64(a.offset(at)), codeBase+uint64(a.offset(at+1))
	fn = codeBase + uint64(a.offset(a.labels["fn"]))
	switch {
	case pk.name == "CALL":
		code[at].Disp = int32(probeNative - after)
	case pk.rip:
		code[at].Disp = int32(mem - after)
	}
	return code, rec, fn, after
}

// probeRun is what a measured run counted.
type probeRun struct {
	hits, misses, cycles uint64
	rsp                  int64 // RSP's move
	fault                string
}

func (r probeRun) String() string {
	s := fmt.Sprintf("hits=%d misses=%d cycles=%d rsp=%+d", r.hits, r.misses, r.cycles, r.rsp)
	if r.fault != "" {
		s += " fault=" + r.fault
	}
	return s
}

// run builds pk's machine, runs it twice with the tested access on
// probeHit (the first run records the path, the second runs the trace),
// and then runs the trace once more with the tested access at pc.word.
func (pk probeKind) run(t *testing.T, pc probeCond) probeRun {
	t.Helper()
	mem, stack := probeQuietMem, probeQuietStack
	if pk.rip {
		mem = pc.word // the warm-up runs take the measured run's word
		if pk.stack {
			mem = probeQuietMem
		}
	}
	code, rec, fn, after := pk.program(mem)
	c := machine(t, code)
	dev := &countingMMIO{}
	as := c.AS
	for _, m := range []struct {
		va    uint64
		flags mm.PageFlags
	}{{probeRO, 0}, {probeConflict, mm.FlagWrite}} {
		if _, err := as.MapRegion(m.va, 1, m.flags); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.RegisterMMIO(probeMMIO, 1, dev); err != nil {
		t.Fatal(err)
	}
	if frame, _, _ := as.Lookup(codeBase + 3*mm.PageSize); as.Map(probeExec, frame, mm.FlagWrite) != nil {
		t.Fatal("cannot map the exec alias")
	}
	c.RegisterNative(probeNative, &Native{Name: "probe", Cost: 5, Fn: func(*CPU) error { return nil }})

	// The words a pop or GOT load reads: fn, HostReturn for the RET
	// that ends the Call, the return address for the native's pop.
	val := uint64(0x0123456789abcdef)
	switch pk.name {
	case "CALLM/got", "CALLM/push", "JMPM", "kRetEdge":
		val = fn
	case "RET":
		val = HostReturn
	case "CALL":
		val = after
	}
	for _, w := range []uint64{probeHit, probeQuietMem, probeQuietStack, pc.word} {
		if err := as.Write64Force(w, val); err != nil {
			t.Fatal(err)
		}
	}
	dev.readVal = val
	if pc.fork {
		c = c.CloneFor(as.Fork(as.Phys().Fork()), c.NativeTable())
	}

	// start sets the registers: the tested access at word, the other
	// one at its quiet word.
	start := func(word uint64) {
		c.RIP, c.Regs[isa.RSI], c.Regs[isa.RDI], c.Regs[isa.R12] = codeBase, mem, 0x77, fn
		c.Regs[isa.RSP] = stack
		switch {
		case pk.stack && pk.push:
			c.Regs[isa.RSP] = word + 8
		case pk.stack:
			c.Regs[isa.RSP] = word
		case !pk.rip:
			c.Regs[isa.RSI] = word
		}
	}
	for range 2 {
		start(probeHit)
		_ = c.Run(DefaultMaxInsts) // a run may fault: a RIP-relative store to a read-only page
	}
	tr, ok := traceAt(t, c, codeBase)
	if !ok || !slices.ContainsFunc(tr.insts, func(in inst) bool { return in.k == pk.k }) {
		t.Fatalf("no trace on codeBase runs a kind %d record", pk.k)
	}
	// The measured word's pages are resident, as the warm-up's were.
	for _, va := range []uint64{pc.word, pc.word + 7} {
		if _, _, err := c.TLB.Entry(va, mm.AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	if pc.evict {
		if _, _, err := c.TLB.Entry(probeConflict, mm.AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	if pc.flush {
		c.TLB.Flush()
	}

	start(pc.word)
	h0, m0, _ := c.TLB.Stats()
	cy0, sp0 := c.Cycles, c.Regs[isa.RSP]
	err := c.Run(DefaultMaxInsts)
	h1, m1, _ := c.TLB.Stats()
	r := probeRun{hits: h1 - h0, misses: m1 - m0, cycles: c.Cycles - cy0, rsp: int64(c.Regs[isa.RSP] - sp0)}
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) || f.RIP != rec {
			t.Fatalf("fault %v, want one at the record (%#x)", err, rec)
		}
		r.fault = f.Reason
	}
	return r
}

// probeTable pins each kind's run on each page. Every row runs 3
// instructions at 1 cycle (MOVI, JMP, the record) and, if it does not
// fault, the HLT after it (1) and, for a transfer, fn's (the native's 5
// instead for CALL). A TLB miss costs 25 cycles and an MMIO access 80.
// RIP-relative words have no fork-shared row: a fork forms its own
// traces, and the run that forms one has already written the page.
const probeTable = `
LOAD       hit         hits=1 misses=0 cycles=4 rsp=+0
LOAD       l1-miss     hits=1 misses=0 cycles=4 rsp=+0
LOAD       tlb-miss    hits=0 misses=1 cycles=29 rsp=+0
LOAD       mmio        hits=1 misses=0 cycles=84 rsp=+0
LOAD       straddle    hits=1 misses=0 cycles=4 rsp=+0
LOAD       read-only   hits=1 misses=0 cycles=4 rsp=+0
LOAD       fork-shared hits=1 misses=0 cycles=4 rsp=+0
LOAD       exec        hits=1 misses=0 cycles=4 rsp=+0
STORE      hit         hits=1 misses=0 cycles=4 rsp=+0
STORE      l1-miss     hits=1 misses=0 cycles=4 rsp=+0
STORE      tlb-miss    hits=0 misses=1 cycles=29 rsp=+0
STORE      mmio        hits=1 misses=0 cycles=84 rsp=+0
STORE      straddle    hits=1 misses=0 cycles=4 rsp=+0
STORE      read-only   hits=0 misses=0 cycles=3 rsp=+0 fault=store
STORE      fork-shared hits=1 misses=0 cycles=4 rsp=+0
STORE      exec        hits=1 misses=0 cycles=4 rsp=+0
LDRIP      hit         hits=1 misses=0 cycles=4 rsp=+0
LDRIP      l1-miss     hits=1 misses=0 cycles=4 rsp=+0
LDRIP      tlb-miss    hits=0 misses=1 cycles=29 rsp=+0
LDRIP      mmio        hits=1 misses=0 cycles=84 rsp=+0
LDRIP      straddle    hits=1 misses=0 cycles=4 rsp=+0
LDRIP      read-only   hits=1 misses=0 cycles=4 rsp=+0
LDRIP      exec        hits=1 misses=0 cycles=4 rsp=+0
STRIP      hit         hits=1 misses=0 cycles=4 rsp=+0
STRIP      l1-miss     hits=1 misses=0 cycles=4 rsp=+0
STRIP      tlb-miss    hits=0 misses=1 cycles=29 rsp=+0
STRIP      mmio        hits=1 misses=0 cycles=84 rsp=+0
STRIP      straddle    hits=1 misses=0 cycles=4 rsp=+0
STRIP      read-only   hits=0 misses=0 cycles=3 rsp=+0 fault=rip-relative store
STRIP      exec        hits=1 misses=0 cycles=4 rsp=+0
XORM       hit         hits=2 misses=0 cycles=4 rsp=+0
XORM       l1-miss     hits=2 misses=0 cycles=4 rsp=+0
XORM       tlb-miss    hits=1 misses=1 cycles=29 rsp=+0
XORM       mmio        hits=2 misses=0 cycles=164 rsp=+0
XORM       straddle    hits=2 misses=0 cycles=4 rsp=+0
XORM       read-only   hits=1 misses=0 cycles=3 rsp=+0 fault=xor-mem store
XORM       fork-shared hits=2 misses=0 cycles=4 rsp=+0
XORM       exec        hits=2 misses=0 cycles=4 rsp=+0
PUSH       hit         hits=1 misses=0 cycles=4 rsp=-8
PUSH       l1-miss     hits=1 misses=0 cycles=4 rsp=-8
PUSH       tlb-miss    hits=0 misses=1 cycles=29 rsp=-8
PUSH       mmio        hits=1 misses=0 cycles=84 rsp=-8
PUSH       straddle    hits=1 misses=0 cycles=4 rsp=-8
PUSH       read-only   hits=0 misses=0 cycles=3 rsp=-8 fault=push
PUSH       fork-shared hits=1 misses=0 cycles=4 rsp=-8
PUSH       exec        hits=1 misses=0 cycles=4 rsp=-8
POP        hit         hits=1 misses=0 cycles=4 rsp=+8
POP        l1-miss     hits=1 misses=0 cycles=4 rsp=+8
POP        tlb-miss    hits=0 misses=1 cycles=29 rsp=+8
POP        mmio        hits=1 misses=0 cycles=84 rsp=+8
POP        straddle    hits=1 misses=0 cycles=4 rsp=+8
POP        read-only   hits=1 misses=0 cycles=4 rsp=+8
POP        fork-shared hits=1 misses=0 cycles=4 rsp=+8
POP        exec        hits=1 misses=0 cycles=4 rsp=+8
CALL       hit         hits=2 misses=0 cycles=9 rsp=+0
CALL       l1-miss     hits=2 misses=0 cycles=9 rsp=+0
CALL       tlb-miss    hits=1 misses=1 cycles=34 rsp=+0
CALL       mmio        hits=2 misses=0 cycles=169 rsp=+0
CALL       straddle    hits=2 misses=0 cycles=9 rsp=+0
CALL       read-only   hits=0 misses=0 cycles=3 rsp=-8 fault=call
CALL       fork-shared hits=2 misses=0 cycles=9 rsp=+0
CALL       exec        hits=2 misses=0 cycles=9 rsp=+0
CALLR      hit         hits=1 misses=0 cycles=4 rsp=-8
CALLR      l1-miss     hits=1 misses=0 cycles=4 rsp=-8
CALLR      tlb-miss    hits=0 misses=1 cycles=29 rsp=-8
CALLR      mmio        hits=1 misses=0 cycles=84 rsp=-8
CALLR      straddle    hits=1 misses=0 cycles=4 rsp=-8
CALLR      read-only   hits=0 misses=0 cycles=3 rsp=-8 fault=call
CALLR      fork-shared hits=1 misses=0 cycles=4 rsp=-8
CALLR      exec        hits=1 misses=0 cycles=4 rsp=-8
CALLM/got  hit         hits=2 misses=0 cycles=4 rsp=-8
CALLM/got  l1-miss     hits=2 misses=0 cycles=4 rsp=-8
CALLM/got  tlb-miss    hits=0 misses=2 cycles=54 rsp=-8
CALLM/got  mmio        hits=2 misses=0 cycles=84 rsp=-8
CALLM/got  straddle    hits=2 misses=0 cycles=4 rsp=-8
CALLM/got  read-only   hits=2 misses=0 cycles=4 rsp=-8
CALLM/got  exec        hits=2 misses=0 cycles=4 rsp=-8
CALLM/push hit         hits=2 misses=0 cycles=4 rsp=-8
CALLM/push l1-miss     hits=2 misses=0 cycles=4 rsp=-8
CALLM/push tlb-miss    hits=0 misses=2 cycles=54 rsp=-8
CALLM/push mmio        hits=2 misses=0 cycles=84 rsp=-8
CALLM/push straddle    hits=2 misses=0 cycles=4 rsp=-8
CALLM/push read-only   hits=1 misses=0 cycles=3 rsp=-8 fault=call
CALLM/push fork-shared hits=2 misses=0 cycles=4 rsp=-8
CALLM/push exec        hits=2 misses=0 cycles=4 rsp=-8
JMPM       hit         hits=1 misses=0 cycles=4 rsp=+0
JMPM       l1-miss     hits=1 misses=0 cycles=4 rsp=+0
JMPM       tlb-miss    hits=0 misses=1 cycles=29 rsp=+0
JMPM       mmio        hits=1 misses=0 cycles=84 rsp=+0
JMPM       straddle    hits=1 misses=0 cycles=4 rsp=+0
JMPM       read-only   hits=1 misses=0 cycles=4 rsp=+0
JMPM       exec        hits=1 misses=0 cycles=4 rsp=+0
RET        hit         hits=1 misses=0 cycles=3 rsp=+8
RET        l1-miss     hits=1 misses=0 cycles=3 rsp=+8
RET        tlb-miss    hits=0 misses=1 cycles=28 rsp=+8
RET        mmio        hits=1 misses=0 cycles=83 rsp=+8
RET        straddle    hits=1 misses=0 cycles=3 rsp=+8
RET        read-only   hits=1 misses=0 cycles=3 rsp=+8
RET        fork-shared hits=1 misses=0 cycles=3 rsp=+8
RET        exec        hits=1 misses=0 cycles=3 rsp=+8
kCallEdge  hit         hits=1 misses=0 cycles=4 rsp=-8
kCallEdge  l1-miss     hits=1 misses=0 cycles=4 rsp=-8
kCallEdge  tlb-miss    hits=0 misses=1 cycles=29 rsp=-8
kCallEdge  mmio        hits=1 misses=0 cycles=84 rsp=-8
kCallEdge  straddle    hits=1 misses=0 cycles=4 rsp=-8
kCallEdge  read-only   hits=0 misses=0 cycles=3 rsp=-8 fault=call
kCallEdge  fork-shared hits=1 misses=0 cycles=4 rsp=-8
kCallEdge  exec        hits=1 misses=0 cycles=4 rsp=-8
kRetEdge   hit         hits=1 misses=0 cycles=4 rsp=+8
kRetEdge   l1-miss     hits=1 misses=0 cycles=4 rsp=+8
kRetEdge   tlb-miss    hits=0 misses=1 cycles=29 rsp=+8
kRetEdge   mmio        hits=1 misses=0 cycles=84 rsp=+8
kRetEdge   straddle    hits=1 misses=0 cycles=4 rsp=+8
kRetEdge   read-only   hits=1 misses=0 cycles=4 rsp=+8
kRetEdge   fork-shared hits=1 misses=0 cycles=4 rsp=+8
kRetEdge   exec        hits=1 misses=0 cycles=4 rsp=+8
`

func TestProbeAccounting(t *testing.T) {
	fullMode(t)
	var got []string
	for _, pk := range probeKinds {
		for _, pc := range probeConds {
			if pc.fork && pk.rip && !pk.stack {
				continue
			}
			got = append(got, fmt.Sprintf("%-10s %-11s %v", pk.name, pc.name, pk.run(t, pc)))
		}
	}
	want := strings.Split(strings.TrimSpace(probeTable), "\n")
	for i := range max(len(got), len(want)) {
		g, w := "", ""
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("row %d: got %q, want %q", i, g, w)
		}
	}
}
