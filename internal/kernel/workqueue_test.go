package kernel

import (
	"strings"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/kcc"
)

// wqModule schedules its own movable handler onto the kernel workqueue:
//
//	wq_submit(arg)  — queue_work(&handler.deferred, arg)
//	handler.deferred(arg) — state += arg
func wqModule() *kcc.Module {
	m := &kcc.Module{Name: "wq"}
	m.AddFunc("handler.deferred", false,
		kcc.GlobalLoad(isa.RAX, "wq_state"),
		kcc.Arith(kcc.OpAdd, isa.RAX, isa.RDI),
		kcc.GlobalStore("wq_state", isa.RAX),
		kcc.Ret(),
	)
	m.AddFunc("wq_submit", true,
		kcc.MovReg(isa.RSI, isa.RDI),                // arg
		kcc.GlobalAddr(isa.RDI, "handler.deferred"), // movable address!
		kcc.Call("queue_work"),
		kcc.Ret(),
	)
	m.AddFunc("wq_read", true,
		kcc.GlobalLoad(isa.RAX, "wq_state"),
		kcc.Ret(),
	)
	m.AddGlobal(kcc.Global{Name: "wq_state", Size: 8, Init: make([]byte, 8)})
	return m
}

func loadWQ(t *testing.T, k *Kernel) *Module {
	t.Helper()
	// Hand-wrapped like rerandModule: the two exported entries get
	// immovable wrappers (the plugin would automate this).
	m := wqModule()
	for _, name := range []string{"wq_submit", "wq_read"} {
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

func TestWorkqueueBasicFlow(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	loadWQ(t, k)
	submit, _ := k.Symbol("wq_submit")
	read, _ := k.Symbol("wq_read")
	c := k.CPU(0)

	for _, arg := range []uint64{5, 7} {
		if _, err := c.Call(submit, arg); err != nil {
			t.Fatal(err)
		}
	}
	if len(k.workqueue) != 2 {
		t.Fatalf("pending = %d, want 2", len(k.workqueue))
	}
	// Nothing ran yet.
	if v, _ := c.Call(read); v != 0 {
		t.Fatalf("state before drain = %d", v)
	}
	n, err := k.RunPendingWork(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(k.workqueue) != 0 {
		t.Fatalf("ran %d, pending %d", n, len(k.workqueue))
	}
	if v, _ := c.Call(read); v != 12 {
		t.Fatalf("state = %d, want 12", v)
	}
}

// TestWorkqueueSurvivesRerandomization is the §3.4 corner case: work is
// queued with a movable handler address, the module moves (possibly
// several times), the old range drains, and the deferred handler still
// runs — because the re-randomizer retargeted the queued address.
func TestWorkqueueSurvivesRerandomization(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadWQ(t, k)
	submit, _ := k.Symbol("wq_submit")
	read, _ := k.Symbol("wq_read")
	c := k.CPU(0)

	if _, err := c.Call(submit, 9); err != nil {
		t.Fatal(err)
	}
	oldBase := mod.Base()
	for i := 0; i < 3; i++ {
		if _, err := mod.Rerandomize(); err != nil {
			t.Fatal(err)
		}
	}
	k.SMR.Flush()
	// The old mapping is gone; an unretargeted handler would fault here.
	if _, _, ok := k.AS.Lookup(oldBase); ok {
		t.Fatal("old range still mapped")
	}
	n, err := k.RunPendingWork(c)
	if err != nil {
		t.Fatalf("deferred handler after 3 moves: %v", err)
	}
	if n != 1 {
		t.Fatalf("ran %d items", n)
	}
	if v, _ := c.Call(read); v != 9 {
		t.Fatalf("state = %d, want 9", v)
	}
}

// TestWorkqueueHandlerGetsOwnCriticalSection verifies the runner brackets
// each handler with mr_start/mr_finish: a re-randomization retired while
// the handler runs must not unmap the range under it. We approximate by
// checking the SMR counters balance across the run.
func TestWorkqueueHandlerGetsOwnCriticalSection(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	loadWQ(t, k)
	submit, _ := k.Symbol("wq_submit")
	c := k.CPU(0)
	if _, err := c.Call(submit, 1); err != nil {
		t.Fatal(err)
	}
	before := k.SMR.Stats()
	if _, err := k.RunPendingWork(c); err != nil {
		t.Fatal(err)
	}
	// Enter/Leave happened (no direct counter, but retire/free balance
	// and no panic from unmatched Leave proves the bracket closed).
	after := k.SMR.Stats()
	if after.Delta() != before.Delta() {
		t.Fatalf("SMR delta changed across handler run: %d → %d", before.Delta(), after.Delta())
	}
}

// TestWorkqueueFaultRequeuesTail: a faulting handler stops the drain and
// preserves the unprocessed tail.
func TestWorkqueueFaultRequeuesTail(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	mod := loadWQ(t, k)
	// Queue a bogus handler directly, then a valid one.
	sym, _ := mod.Obj.Lookup("handler.deferred")
	secVA, _ := mod.Movable.SectionVA(sym.Section)
	k.QueueWork(0xDEAD000, 1)        // unmapped: faults
	k.QueueWork(secVA+sym.Offset, 2) // valid
	c := k.CPU(0)
	n, err := k.RunPendingWork(c)
	if err == nil || !strings.Contains(err.Error(), "work item 0") {
		t.Fatalf("got (%d, %v), want item-0 fault", n, err)
	}
	if len(k.workqueue) != 1 {
		t.Fatalf("tail not requeued: pending = %d", len(k.workqueue))
	}
	if n2, err := k.RunPendingWork(c); err != nil || n2 != 1 {
		t.Fatalf("tail drain = (%d, %v)", n2, err)
	}
}
