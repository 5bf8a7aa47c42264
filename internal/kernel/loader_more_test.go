package kernel

import (
	"strings"
	"testing"

	"adelie/internal/elfmod"
	"adelie/internal/isa"
	"adelie/internal/kcc"
	"adelie/internal/mm"
)

// TestFig4AblationKeepsSemantics loads the same module with patching
// disabled and verifies identical behaviour with larger tables.
func TestFig4AblationKeepsSemantics(t *testing.T) {
	run := func(disabled bool) (uint64, int) {
		k, err := New(Config{NumCPUs: 2, Seed: 42, KASLR: KASLRFull64, DisableFig4Patching: disabled})
		if err != nil {
			t.Fatal(err)
		}
		obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC, Retpoline: true})
		mod, err := k.Load(obj)
		if err != nil {
			t.Fatal(err)
		}
		va, _ := k.Symbol("compute")
		got, err := k.CPU(0).Call(va)
		if err != nil {
			t.Fatal(err)
		}
		return got, len(mod.Movable.GotFixed.Slots)
	}
	vPatched, gotPatched := run(false)
	vUnpatched, gotUnpatched := run(true)
	if vPatched != vUnpatched {
		t.Fatalf("semantics differ: %d vs %d", vPatched, vUnpatched)
	}
	if gotUnpatched <= gotPatched {
		t.Fatalf("ablation should inflate the GOT: %d vs %d", gotPatched, gotUnpatched)
	}
}

// TestUnpatchedCallMExecutes drives the CALLM (GOT-indirect call) path
// that the Fig.-4 optimization normally removes for local calls.
func TestUnpatchedCallMExecutes(t *testing.T) {
	k, err := New(Config{NumCPUs: 2, Seed: 7, KASLR: KASLRFull64, DisableFig4Patching: true})
	if err != nil {
		t.Fatal(err)
	}
	// Non-retpoline PIC: local calls stay as call *foo@GOTPCREL(%rip).
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC})
	if _, err := k.Load(obj); err != nil {
		t.Fatal(err)
	}
	va, _ := k.Symbol("compute")
	got, err := k.CPU(0).Call(va)
	if err != nil {
		t.Fatal(err)
	}
	if got != 43 {
		t.Fatalf("compute through unpatched GOT calls = %d", got)
	}
}

// TestWrapperPreservesSixArgs checks the §3.4 claim embodied in wrappers:
// up to six register arguments pass through the wrapper untouched.
func TestWrapperPreservesSixArgs(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	m := &kcc.Module{Name: "args"}
	m.AddFunc("sum6.real", false,
		kcc.MovReg(isa.RAX, isa.RDI),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RSI),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RDX),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RCX),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.R8),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.R9),
		kcc.Ret(),
	)
	w := m.AddFunc("sum6", true,
		kcc.Push(isa.RBX),
		kcc.Call("mr_start"),
		kcc.Call("sum6.real"),
		kcc.MovReg(isa.RBX, isa.RAX),
		kcc.Call("mr_finish"),
		kcc.MovReg(isa.RAX, isa.RBX),
		kcc.Pop(isa.RBX),
		kcc.Ret(),
	)
	w.InFixedText = true
	w.NoInstrument = true
	w.Wrapper = true
	obj := mustCompile(t, m, kcc.Options{Model: kcc.ModelPIC, Retpoline: true, Rerandomizable: true})
	if _, err := k.Load(obj); err != nil {
		t.Fatal(err)
	}
	va, _ := k.Symbol("sum6")
	got, err := k.CPU(0).Call(va, 1, 2, 3, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 21 {
		t.Fatalf("sum6 = %d, want 21", got)
	}
}

// TestCrossPartRel32Rejected pins the loader's refusal to resolve a rel32
// reference between the movable and immovable parts — their distance is
// unbounded by design.
func TestCrossPartRel32Rejected(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := elfmod.New("bad")
	obj.PIC = true
	obj.Rerandomizable = true
	text := obj.AddSection(elfmod.SecText, make([]byte, 16))
	fixed := obj.AddSection(elfmod.SecFixedText, []byte{0x90, 0xC3})
	wrap, err := obj.AddSymbol(elfmod.Symbol{Name: "w", Section: fixed, Bind: elfmod.BindGlobal, Kind: elfmod.SymFunc, Wrapper: true})
	if err != nil {
		t.Fatal(err)
	}
	obj.AddReloc(elfmod.Reloc{Section: text, Offset: 1, Type: elfmod.RelPC32, Symbol: wrap, Addend: -4})
	if _, err := k.Load(obj); err == nil || !strings.Contains(err.Error(), "crosses movable/immovable") {
		t.Fatalf("got %v, want cross-part rejection", err)
	}
}

// TestLoadRollbackOnFailure verifies a failed load leaves no mappings or
// claims behind.
func TestLoadRollbackOnFailure(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mapped := k.AS.MappedPages()
	m := &kcc.Module{Name: "fail"}
	m.AddFunc("f", true, kcc.Call("missing_symbol"), kcc.Ret())
	obj := mustCompile(t, m, kcc.Options{Model: kcc.ModelPIC})
	if _, err := k.Load(obj); err == nil {
		t.Fatal("load should fail")
	}
	if got := k.AS.MappedPages(); got != mapped {
		t.Fatalf("pages leaked by failed load: %d → %d", mapped, got)
	}
	// The name is free for a corrected retry.
	good := &kcc.Module{Name: "fail"}
	good.AddFunc("f2", true, kcc.Ret())
	if _, err := k.Load(mustCompile(t, good, kcc.Options{Model: kcc.ModelPIC})); err != nil {
		t.Fatal(err)
	}
}

// TestRerandExhaustionIsGraceful: under vanilla KASLR the window is 2 GB;
// loading re-randomizable modules there is fine but they must still honor
// the window on every move.
func TestRerandStaysInsideWindow(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj, err := kcc.Compile(rerandModule(), kcc.Options{Model: kcc.ModelPIC, Retpoline: true, Rerandomizable: true})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := k.moduleRangeLo, k.moduleRangeHi
	for i := 0; i < 10; i++ {
		if _, err := mod.Rerandomize(); err != nil {
			t.Fatal(err)
		}
		if b := mod.Base(); b < lo || b >= hi {
			t.Fatalf("move %d landed at %#x outside [%#x,%#x)", i, b, lo, hi)
		}
		k.SMR.Flush()
	}
}

// TestGOTPageIsSeparateFromData ensures GOTs land on their own pages so
// write-protection does not cover module data.
func TestGOTPageIsSeparateFromData(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC, Retpoline: true})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	gotPage := mod.Movable.GotFixed.Base &^ uint64(mm.PageMask)
	sym, _ := obj.Lookup("counter")
	dataVA := mod.Movable.Base + mod.Movable.secOff[sym.Section] + sym.Offset
	if dataVA&^uint64(mm.PageMask) == gotPage {
		t.Fatal("GOT shares a page with .data")
	}
	// Data stays writable even though the GOT page is protected.
	if err := k.AS.Write64(dataVA, 9); err != nil {
		t.Fatal(err)
	}
}

// TestExportCollisionAcrossModulesRejected: the kernel symbol table is
// global, as in Linux.
func TestExportCollisionAcrossModulesRejected(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	a := &kcc.Module{Name: "a"}
	a.AddFunc("shared_name", true, kcc.Ret())
	if _, err := k.Load(mustCompile(t, a, kcc.Options{Model: kcc.ModelPIC})); err != nil {
		t.Fatal(err)
	}
	b := &kcc.Module{Name: "b"}
	b.AddFunc("shared_name", true, kcc.Ret())
	if _, err := k.Load(mustCompile(t, b, kcc.Options{Model: kcc.ModelPIC})); err == nil {
		t.Fatal("duplicate export across modules accepted")
	}
}
