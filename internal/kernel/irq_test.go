package kernel

import (
	"testing"

	"adelie/internal/isa"
	"adelie/internal/kcc"
)

// irqModule registers its own movable handler as an ISR via request_irq:
//
//	irq_setup(line)    — request_irq(line, &handler.isr)
//	handler.isr(line)  — irq_hits += line + 1
func irqModule() *kcc.Module {
	m := &kcc.Module{Name: "irqm"}
	m.AddFunc("handler.isr", false,
		kcc.GlobalLoad(isa.RAX, "irq_hits"),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RDI),
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.GlobalStore("irq_hits", isa.RAX),
		kcc.Ret(),
	)
	m.AddFunc("irq_setup", true,
		kcc.GlobalAddr(isa.RSI, "handler.isr"), // movable address!
		kcc.Call("request_irq"),
		kcc.Ret(),
	)
	m.AddFunc("irq_read", true,
		kcc.GlobalLoad(isa.RAX, "irq_hits"),
		kcc.Ret(),
	)
	m.AddGlobal(kcc.Global{Name: "irq_hits", Size: 8, Init: make([]byte, 8)})
	return m
}

func loadIRQ(t *testing.T, k *Kernel) *Module {
	t.Helper()
	// Hand-wrapped like loadWQ: exported entries get immovable wrappers.
	m := irqModule()
	for _, name := range []string{"irq_setup", "irq_read"} {
		f := m.Func(name)
		f.Name = name + ".real"
		f.Export = false
		w := m.AddFunc(name, true,
			kcc.Push(isa.RBX),
			kcc.Call("mr_start"),
			kcc.Call(name+".real"),
			kcc.MovReg(isa.RBX, isa.RAX),
			kcc.Call("mr_finish"),
			kcc.MovReg(isa.RAX, isa.RBX),
			kcc.Pop(isa.RBX),
			kcc.Ret(),
		)
		w.InFixedText = true
		w.NoInstrument = true
		w.Wrapper = true
	}
	obj := mustCompile(t, m, kcc.Options{Model: kcc.ModelPIC, Retpoline: true, Rerandomizable: true})
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestIRQRegisterAndDispatch(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	loadIRQ(t, k)
	setup, _ := k.Symbol("irq_setup")
	read, _ := k.Symbol("irq_read")
	c := k.CPU(0)

	if _, err := c.Call(setup, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.isrs.v[3]; !ok || len(k.isrs.v) != 1 {
		t.Fatalf("ISR lines = %v, want [3]", k.isrs.v)
	}
	handled, err := k.DispatchIRQ(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !handled {
		t.Fatal("registered line reported spurious")
	}
	if v, _ := c.Call(read); v != 4 { // line+1
		t.Fatalf("irq_hits = %d, want 4", v)
	}
}

// TestDispatchSpuriousIRQ: an unregistered line is reported spurious,
// no fault.
func TestDispatchSpuriousIRQ(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	handled, err := k.DispatchIRQ(k.CPU(0), 9)
	if err != nil || handled {
		t.Fatalf("spurious dispatch = (%v, %v), want (false, nil)", handled, err)
	}
}

// TestISRSurvivesRerandomization is the interrupt counterpart of the
// workqueue §3.4 corner case: the vector points into the movable part,
// the module moves several times, the old range drains, and dispatch
// still lands — because the re-randomizer slid the registered vector.
func TestISRSurvivesRerandomization(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadIRQ(t, k)
	setup, _ := k.Symbol("irq_setup")
	read, _ := k.Symbol("irq_read")
	c := k.CPU(0)

	if _, err := c.Call(setup, 0); err != nil {
		t.Fatal(err)
	}
	oldBase := mod.Base()
	for i := 0; i < 3; i++ {
		if _, err := mod.Rerandomize(); err != nil {
			t.Fatal(err)
		}
	}
	k.SMR.Flush()
	// The old mapping is gone; an unslid vector would fault here.
	if _, _, ok := k.AS.Lookup(oldBase); ok {
		t.Fatal("old range still mapped")
	}
	handled, err := k.DispatchIRQ(c, 0)
	if err != nil {
		t.Fatalf("ISR after 3 moves: %v", err)
	}
	if !handled {
		t.Fatal("vector lost across moves")
	}
	if v, _ := c.Call(read); v != 1 {
		t.Fatalf("irq_hits = %d, want 1", v)
	}
}

// TestDispatchIRQBracketsSMR: each dispatch closes its own critical
// section — counters balance across the dispatch.
func TestDispatchIRQBracketsSMR(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	loadIRQ(t, k)
	setup, _ := k.Symbol("irq_setup")
	c := k.CPU(0)
	if _, err := c.Call(setup, 1); err != nil {
		t.Fatal(err)
	}
	before := k.SMR.Stats()
	if _, err := k.DispatchIRQ(c, 1); err != nil {
		t.Fatal(err)
	}
	after := k.SMR.Stats()
	if after.Delta() != before.Delta() {
		t.Fatalf("SMR delta changed across dispatch: %d → %d", before.Delta(), after.Delta())
	}
}
