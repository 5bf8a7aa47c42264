package kernel

import (
	"errors"
	"strings"
	"testing"

	"adelie/internal/elfmod"
	"adelie/internal/isa"
	"adelie/internal/kcc"
	"adelie/internal/mm"
)

func newKernel(t *testing.T, mode KASLRMode) *Kernel {
	t.Helper()
	k, err := New(Config{NumCPUs: 4, Seed: 42, KASLR: mode})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// simpleModule builds a module with local calls, a GOT data access, a
// kernel import and a data table with function pointers.
func simpleModule(name string) *kcc.Module {
	m := &kcc.Module{Name: name}
	m.AddFunc("helper", false,
		kcc.MovImm(isa.RAX, 21),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RAX), // 42
		kcc.Ret(),
	)
	m.AddFunc("compute", true,
		kcc.Call("helper"),
		kcc.GlobalLoad(isa.RBX, "counter"),
		kcc.ArithImm(kcc.OpAdd, isa.RBX, 1),
		kcc.GlobalStore("counter", isa.RBX),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RBX),
		kcc.Ret(),
	)
	m.AddFunc("logline", true,
		kcc.GlobalAddr(isa.RDI, "banner"),
		kcc.Call("printk"),
		kcc.MovImm(isa.RAX, 0),
		kcc.Ret(),
	)
	m.AddGlobal(kcc.Global{Name: "counter", Size: 8, Init: make([]byte, 8)})
	m.AddGlobal(kcc.Global{Name: "banner", Size: 8, Init: []byte("hello.\x00\x00"), ReadOnly: true})
	return m
}

func mustCompile(t *testing.T, m *kcc.Module, opts kcc.Options) *elfmod.Object {
	t.Helper()
	obj, err := kcc.Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestLoadAndCallPICModule(t *testing.T) {
	for _, retpoline := range []bool{false, true} {
		k := newKernel(t, KASLRFull64)
		obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC, Retpoline: retpoline})
		mod, err := k.Load(obj)
		if err != nil {
			t.Fatal(err)
		}
		va, ok := k.Symbol("compute")
		if !ok {
			t.Fatal("compute not exported")
		}
		c := k.CPU(0)
		for want := uint64(43); want < 46; want++ { // counter increments per call
			got, err := c.Call(va)
			if err != nil {
				t.Fatalf("retpoline=%v: %v", retpoline, err)
			}
			if got != want {
				t.Fatalf("retpoline=%v: compute = %d, want %d", retpoline, got, want)
			}
		}
		_ = mod
	}
}

func TestModuleCallsKernelNatives(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC, Retpoline: true})
	if _, err := k.Load(obj); err != nil {
		t.Fatal(err)
	}
	va, _ := k.Symbol("logline")
	if _, err := k.CPU(0).Call(va); err != nil {
		t.Fatal(err)
	}
	log := k.Dmesg()
	if len(log) != 1 || log[0] != "hello." {
		t.Fatalf("dmesg = %q, want [hello.]", log)
	}
}

func TestAbsoluteModelUnderVanillaKASLR(t *testing.T) {
	k := newKernel(t, KASLRVanilla)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelAbsolute})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Placement must be within the vanilla 2 GB window of the kernel.
	lo, hi := k.moduleRangeLo, k.moduleRangeHi
	if mod.Movable.Base < lo || mod.Movable.Base >= hi {
		t.Fatalf("module at %#x outside vanilla window [%#x,%#x)", mod.Movable.Base, lo, hi)
	}
	if hi-lo > 1<<31 {
		t.Fatalf("vanilla window is %d bytes; must be ≤2 GB", hi-lo)
	}
	va, _ := k.Symbol("compute")
	got, err := k.CPU(0).Call(va)
	if err != nil {
		t.Fatal(err)
	}
	if got != 43 {
		t.Fatalf("compute = %d, want 43", got)
	}
}

func TestNonPICRejectedUnderFull64(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelAbsolute})
	if _, err := k.Load(obj); err == nil {
		t.Fatal("non-PIC module must not load under 64-bit KASLR")
	}
}

func TestFig4PatchingCounters(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	// helper is local: its call site must be patched to a direct call.
	if mod.CallsPatched == 0 {
		t.Error("no GOT-indirect calls were patched to direct calls")
	}
	// counter/banner are local: their GOT loads become lea.
	if mod.GotLoadsPatched == 0 {
		t.Error("no GOT loads were patched to lea")
	}
	// Only kernel imports should hold GOT slots.
	for _, s := range mod.Movable.GotFixed.Slots {
		if sym, ok := obj.Lookup(s.Sym); ok && !sym.IsUndefined() {
			t.Errorf("local symbol %q kept a GOT slot", s.Sym)
		}
	}
}

func TestRetpolineStubsOnlyForImports(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC, Retpoline: true})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	if mod.PltStubsElided == 0 {
		t.Error("local calls should have their PLT stubs elided")
	}
	if mod.PltStubsBuilt == 0 {
		t.Error("kernel imports under retpoline need PLT stubs")
	}
	if _, ok := mod.Movable.stubs["printk"]; !ok {
		t.Error("printk should have a PLT stub")
	}
	if _, ok := mod.Movable.stubs["helper"]; ok {
		t.Error("local helper must not have a PLT stub")
	}
}

func TestGOTIsWriteProtected(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC, Retpoline: true})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	got := mod.Movable.GotFixed
	if len(got.Slots) == 0 {
		t.Fatal("expected GOT slots for kernel imports")
	}
	err = k.AS.WriteBytes(got.SlotVA(0), []byte{0xAA})
	var pf *mm.PageFault
	if !errors.As(err, &pf) || pf.Access != mm.AccessWrite {
		t.Fatalf("GOT write: got %v, want write page fault", err)
	}
}

func TestTextIsNotWritableAndDataIsNotExecutable(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	textVA, _ := mod.Movable.SectionVA(0)
	if err := k.AS.WriteBytes(textVA, []byte{0x90}); err == nil {
		t.Fatal("module text must be write-protected")
	}
	// counter lives in .data: executing it must fault (NX).
	sym, _ := obj.Lookup("counter")
	p := &mod.Movable
	dataVA := p.Base + p.secOff[sym.Section] + sym.Offset
	if _, err := k.CPU(0).Call(dataVA); err == nil {
		t.Fatal("executing .data must fault")
	}
}

// rerandModule hand-builds what the plugin will automate: a wrapped
// exported function with an immovable wrapper and a movable body.
func rerandModule() *kcc.Module {
	m := &kcc.Module{Name: "rr"}
	m.AddFunc("nullop.real", false,
		kcc.GlobalLoad(isa.RAX, "calls"),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.GlobalStore("calls", isa.RAX),
		kcc.Ret(),
	)
	w := m.AddFunc("nullop", true,
		kcc.Call("mr_start"),
		kcc.Call("nullop.real"),
		kcc.Push(isa.RAX), // preserve return value across mr_finish
		kcc.Call("mr_finish"),
		kcc.Pop(isa.RAX),
		kcc.Ret(),
	)
	w.InFixedText = true
	w.NoInstrument = true
	w.Wrapper = true
	m.AddGlobal(kcc.Global{Name: "calls", Size: 8, Init: make([]byte, 8)})
	// An ops table in .data holding a movable function pointer — the kind
	// of pointer the re-randomizer must slide.
	m.AddGlobal(kcc.Global{
		Name: "optable", Size: 8, Init: make([]byte, 8),
		Relocs: []kcc.DataReloc{{Offset: 0, Sym: "nullop.real"}},
	})
	return m
}

func loadRerand(t *testing.T, k *Kernel) *Module {
	t.Helper()
	obj := mustCompile(t, rerandModule(), kcc.Options{Model: kcc.ModelPIC, Retpoline: true, Rerandomizable: true})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestRerandomizableModuleLayout(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadRerand(t, k)
	if mod.Immovable.Pages == 0 {
		t.Fatal("re-randomizable module needs an immovable part")
	}
	// The export must resolve into the immovable part.
	va, ok := k.Symbol("nullop")
	if !ok {
		t.Fatal("wrapper not exported")
	}
	if va < mod.Immovable.Base || va >= mod.Immovable.Base+mod.Immovable.Size {
		t.Fatalf("export %#x outside immovable part [%#x,%#x)", va, mod.Immovable.Base, mod.Immovable.Base+mod.Immovable.Size)
	}
	// Wrapper→body call crosses parts: it must use the immovable local GOT.
	if len(mod.Immovable.GotLocal.Slots) == 0 {
		t.Fatal("immovable local GOT is empty; wrapper call not routed through it")
	}
}

func TestRerandomizeMovesModuleAndKeepsItWorking(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadRerand(t, k)
	va, _ := k.Symbol("nullop")
	c := k.CPU(0)

	call := func() uint64 {
		t.Helper()
		v, err := c.Call(va)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := call(); got != 1 {
		t.Fatalf("first call = %d, want 1", got)
	}

	base0 := mod.Base()
	key0 := mod.Key()
	delta, err := mod.Rerandomize()
	if err != nil {
		t.Fatal(err)
	}
	if delta == 0 || mod.Base() == base0 {
		t.Fatal("module did not move")
	}
	if mod.Key() == key0 {
		t.Fatal("key did not rotate")
	}
	// Wrapper address is stable; calls keep working and see module state.
	if got := call(); got != 2 {
		t.Fatalf("post-rerand call = %d, want 2", got)
	}
	// After the SMR grace period the old range must be unmapped.
	k.SMR.Flush()
	if _, _, ok := k.AS.Lookup(base0); ok {
		t.Fatal("old base still mapped after drain")
	}
	// Several more rounds to shake out bookkeeping bugs.
	for i := 0; i < 5; i++ {
		if _, err := mod.Rerandomize(); err != nil {
			t.Fatal(err)
		}
		if got := call(); got != uint64(3+i) {
			t.Fatalf("round %d: calls = %d", i, got)
		}
	}
	if mod.Rerandomizations != 6 {
		t.Fatalf("Rerandomizations = %d, want 6", mod.Rerandomizations)
	}
}

func TestRerandomizeSlidesDataPointers(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadRerand(t, k)
	sym, _ := mod.Obj.Lookup("optable")
	readPtr := func() uint64 {
		va := mod.Movable.Base + mod.Movable.secOff[sym.Section] + sym.Offset
		v, err := k.AS.Read64Force(va)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	before := readPtr()
	delta, err := mod.Rerandomize()
	if err != nil {
		t.Fatal(err)
	}
	after := readPtr()
	if after != before+delta {
		t.Fatalf("ops-table pointer = %#x, want %#x (slid by delta)", after, before+delta)
	}
	// The slid pointer must point at executable bytes of the new mapping.
	if _, _, err := k.AS.Translate(after, mm.AccessExec); err != nil {
		t.Fatalf("slid pointer not executable: %v", err)
	}
}

func TestDelayedUnmapHoldsForPendingCalls(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadRerand(t, k)
	base0 := mod.Base()

	// A pending call entered before re-randomization…
	k.SMR.Enter(1)
	if _, err := mod.Rerandomize(); err != nil {
		t.Fatal(err)
	}
	k.SMR.Flush()
	if _, _, ok := k.AS.Lookup(base0); !ok {
		t.Fatal("old range unmapped while a call was pending")
	}
	// …keeps the old mapping alive until it finishes.
	k.SMR.Leave(1)
	k.SMR.Flush()
	if _, _, ok := k.AS.Lookup(base0); ok {
		t.Fatal("old range not unmapped after pending call finished")
	}
}

func TestOldKeyRemainsVisibleToOldMapping(t *testing.T) {
	// The reason local GOTs are reallocated rather than updated in place:
	// a pending call in the old mapping must still decrypt with the old
	// key. Verify the old mapping's key slot holds the old key while the
	// new mapping's holds the new one.
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, rerandKeyModule(), kcc.Options{Model: kcc.ModelPIC, Rerandomizable: true})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	g := mod.Movable.GotLocal
	ki, ok := g.Lookup(elfmod.KeySymbol)
	if !ok {
		t.Fatal("no key slot allocated")
	}
	oldSlotVA := g.SlotVA(ki)
	oldKey := mod.Key()

	k.SMR.Enter(0) // pending call pins the old mapping
	if _, err := mod.Rerandomize(); err != nil {
		t.Fatal(err)
	}
	newKey := mod.Key()
	gotOld, err := k.AS.Read64Force(oldSlotVA)
	if err != nil {
		t.Fatal(err)
	}
	if gotOld != oldKey {
		t.Fatalf("old mapping key slot = %#x, want old key %#x", gotOld, oldKey)
	}
	gotNew, err := k.AS.Read64Force(g.SlotVA(ki))
	if err != nil {
		t.Fatal(err)
	}
	if gotNew != newKey || newKey == oldKey {
		t.Fatalf("new mapping key slot = %#x, want fresh key %#x", gotNew, newKey)
	}
	k.SMR.Leave(0)
}

// rerandKeyModule contains a movable function that loads the key from the
// GOT, as the plugin's prologue does.
func rerandKeyModule() *kcc.Module {
	m := &kcc.Module{Name: "rk"}
	m.AddFunc("touchkey.real", false,
		kcc.GotLoad(isa.R11, elfmod.KeySymbol),
		kcc.MovReg(isa.RAX, isa.R11),
		kcc.Ret(),
	)
	w := m.AddFunc("touchkey", true,
		kcc.Call("touchkey.real"),
		kcc.Ret(),
	)
	w.InFixedText = true
	w.NoInstrument = true
	w.Wrapper = true
	return m
}

func TestMovableExportRejected(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	m := &kcc.Module{Name: "bad"}
	m.AddFunc("leaky", true, kcc.Ret()) // exported but movable
	obj := mustCompile(t, m, kcc.Options{Model: kcc.ModelPIC, Rerandomizable: true})
	if _, err := k.Load(obj); err == nil || !strings.Contains(err.Error(), "movable part") {
		t.Fatalf("got %v, want movable-export rejection", err)
	}
}

func TestDuplicateLoadRejected(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("dup"), kcc.Options{Model: kcc.ModelPIC})
	if _, err := k.Load(obj); err != nil {
		t.Fatal(err)
	}
	obj2 := mustCompile(t, simpleModule("dup"), kcc.Options{Model: kcc.ModelPIC})
	if _, err := k.Load(obj2); err == nil {
		t.Fatal("duplicate module load accepted")
	}
}

func TestUnresolvedImportFailsLoad(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	m := &kcc.Module{Name: "m"}
	m.AddFunc("f", true, kcc.Call("no_such_kernel_symbol"), kcc.Ret())
	obj := mustCompile(t, m, kcc.Options{Model: kcc.ModelPIC})
	if _, err := k.Load(obj); err == nil || !strings.Contains(err.Error(), "unresolved symbol") {
		t.Fatalf("got %v, want unresolved-symbol error", err)
	}
}

func TestUnload(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	obj := mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	base := mod.Movable.Base
	if err := mod.Unload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Symbol("compute"); ok {
		t.Fatal("exports not withdrawn")
	}
	if _, _, ok := k.AS.Lookup(base); ok {
		t.Fatal("module pages not unmapped")
	}
	// The region is free for reuse.
	if _, err := k.Load(mustCompile(t, simpleModule("m"), kcc.Options{Model: kcc.ModelPIC})); err != nil {
		t.Fatal(err)
	}
}

func TestKmallocKfree(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	a, err := k.Kmalloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AS.Write64(a, 0x1122); err != nil {
		t.Fatal(err)
	}
	b, err := k.Kmalloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	if err := k.Kfree(a); err != nil {
		t.Fatal(err)
	}
	c2, err := k.Kmalloc(90) // same 128-byte class: reuses a
	if err != nil {
		t.Fatal(err)
	}
	if c2 != a {
		t.Fatalf("free list not reused: got %#x, want %#x", c2, a)
	}
	if err := k.Kfree(a); err != nil {
		t.Fatal(err)
	}
	if err := k.Kfree(a); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestStackGuardPage(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	top, err := k.AllocStack()
	if err != nil {
		t.Fatal(err)
	}
	base := top - KernelStackPages*mm.PageSize
	if err := k.AS.WriteBytes(base, []byte{1}); err != nil {
		t.Fatal("stack base must be writable")
	}
	if err := k.AS.WriteBytes(base-8, []byte{1}); err == nil {
		t.Fatal("guard page below the stack must fault")
	}
}

func TestModulePlacementEntropy(t *testing.T) {
	// Under full 64-bit KASLR, repeated loads land at wildly different
	// addresses; under vanilla they cluster in the 2 GB window. This is
	// the §6 entropy difference in miniature.
	spread := func(mode KASLRMode) uint64 {
		k := newKernel(t, mode)
		var lo, hi uint64 = ^uint64(0), 0
		for i := 0; i < 8; i++ {
			name := fmt2("m", i)
			km := &kcc.Module{Name: name}
			km.AddFunc("entry_"+name, true, kcc.MovImm(isa.RAX, 1), kcc.Ret())
			obj := mustCompile(t, km, kcc.Options{Model: kcc.ModelPIC})
			mod, err := k.Load(obj)
			if err != nil {
				t.Fatal(err)
			}
			if mod.Movable.Base < lo {
				lo = mod.Movable.Base
			}
			if mod.Movable.Base > hi {
				hi = mod.Movable.Base
			}
		}
		return hi - lo
	}
	if v, f := spread(KASLRVanilla), spread(KASLRFull64); v >= 1<<31 || f <= 1<<31 {
		t.Fatalf("vanilla spread %#x (want <2GB), full64 spread %#x (want >2GB)", v, f)
	}
}

func fmt2(p string, i int) string { return p + string(rune('a'+i)) }

func TestRandomRegionNoOverlap(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	type iv struct{ lo, hi uint64 }
	var got []iv
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := 0; i < 200; i++ {
		base, err := k.randomRegion(3*mm.PageSize, k.moduleRangeLo, k.moduleRangeHi)
		if err != nil {
			t.Fatal(err)
		}
		ni := iv{base, base + 3*mm.PageSize}
		for _, o := range got {
			if ni.lo < o.hi && o.lo < ni.hi {
				t.Fatalf("overlap: [%#x,%#x) vs [%#x,%#x)", ni.lo, ni.hi, o.lo, o.hi)
			}
		}
		got = append(got, ni)
	}
}

func BenchmarkRerandomize(b *testing.B) {
	k, err := New(Config{NumCPUs: 4, Seed: 7, KASLR: KASLRFull64})
	if err != nil {
		b.Fatal(err)
	}
	obj, err := kcc.Compile(rerandModule(), kcc.Options{Model: kcc.ModelPIC, Retpoline: true, Rerandomizable: true})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := k.Load(obj)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mod.Rerandomize(); err != nil {
			b.Fatal(err)
		}
		k.SMR.Flush()
	}
}
