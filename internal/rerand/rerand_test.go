package rerand

import (
	"runtime"
	"strings"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/kcc"
	"adelie/internal/kernel"
	"adelie/internal/plugin"
)

// counterDriver is a small driver whose exported entry increments and
// returns a counter — observable state across re-randomizations.
func counterDriver() *kcc.Module {
	m := &kcc.Module{Name: "ctr"}
	m.AddFunc("bump_helper", false,
		kcc.ArithImm(kcc.OpAdd, isa.RAX, 1),
		kcc.Ret(),
	)
	m.AddFunc("ctr_ioctl", true,
		kcc.GlobalLoad(isa.RAX, "count"),
		kcc.Call("bump_helper"),
		kcc.GlobalStore("count", isa.RAX),
		kcc.Ret(),
	)
	m.AddGlobal(kcc.Global{Name: "count", Size: 8, Init: make([]byte, 8)})
	return m
}

// setup boots a kernel, creates the randomizer, builds and loads the
// driver with the given plugin options, and registers it.
func setup(t *testing.T, opts plugin.Options) (*kernel.Kernel, *Randomizer, *kernel.Module, uint64) {
	t.Helper()
	k, err := kernel.New(kernel.Config{NumCPUs: 4, Seed: 99, KASLR: kernel.KASLRFull64})
	if err != nil {
		t.Fatal(err)
	}
	r := New(k)
	obj, err := plugin.Build(counterDriver(), opts)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(mod); err != nil {
		t.Fatal(err)
	}
	va, ok := k.Symbol("ctr_ioctl")
	if !ok {
		t.Fatal("ctr_ioctl not exported")
	}
	return k, r, mod, va
}

func allOptionCombos() map[string]plugin.Options {
	return map[string]plugin.Options{
		"plain":         {},
		"retpoline":     {Retpoline: true},
		"stack":         {StackRerand: true},
		"encrypt":       {RetEncrypt: true},
		"stack+encrypt": {StackRerand: true, RetEncrypt: true},
		"full":          {Retpoline: true, StackRerand: true, RetEncrypt: true},
	}
}

func TestEndToEndAcrossRerandomization(t *testing.T) {
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			k, r, mod, va := setup(t, opts)
			c := k.CPU(0)
			want := uint64(0)
			for round := 0; round < 8; round++ {
				for i := 0; i < 3; i++ {
					got, err := c.Call(va)
					if err != nil {
						t.Fatalf("round %d call %d: %v", round, i, err)
					}
					want++
					if got != want {
						t.Fatalf("round %d: counter = %d, want %d", round, got, want)
					}
				}
				base := mod.Base()
				rep, err := r.Step()
				if err != nil {
					t.Fatal(err)
				}
				if rep.ModulesMoved != 1 || mod.Base() == base {
					t.Fatalf("round %d: module did not move (rep %+v)", round, rep)
				}
			}
			// With no pending calls everything drains.
			k.SMR.Flush()
			if d := k.SMR.Stats().Delta(); d != 0 {
				t.Fatalf("SMR delta = %d after drain", d)
			}
		})
	}
}

func TestStackSwapHappens(t *testing.T) {
	k, r, _, va := setup(t, plugin.Options{StackRerand: true})
	c := k.CPU(0)
	if _, err := c.Call(va); err != nil {
		t.Fatal(err)
	}
	st := r.Pool.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.Allocs != 1 {
		t.Fatalf("pool stats = %+v; wrapper did not swap stacks", st)
	}
	// Second call reuses the pooled stack.
	if _, err := c.Call(va); err != nil {
		t.Fatal(err)
	}
	if st := r.Pool.Stats(); st.Allocs != 1 {
		t.Fatalf("allocs = %d, want 1 (LIFO reuse)", st.Allocs)
	}
	// After a step, the old stack is retired and freed once safe.
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	k.SMR.Flush()
	if st := r.Pool.Stats(); st.Frees != 1 {
		t.Fatalf("frees = %d, want 1 after swap+drain", st.Frees)
	}
}

func TestPendingCallSurvivesRerandomization(t *testing.T) {
	// Simulates a call that was in flight when the randomizer fired: the
	// old mapping (code, GOT, key) must remain fully functional until the
	// call completes. We freeze the old movable entry address, step the
	// randomizer under an SMR pin, and invoke the old address directly.
	k, r, mod, _ := setup(t, plugin.Options{RetEncrypt: true})
	sym, ok := mod.Obj.Lookup("ctr_ioctl" + plugin.RealSuffix)
	if !ok {
		t.Fatal("real body symbol missing")
	}
	secVA, ok := mod.Movable.SectionVA(sym.Section)
	if !ok {
		t.Fatal("movable text VA unknown")
	}
	oldEntry := secVA + sym.Offset

	k.SMR.Enter(2) // pin: a pending call is "inside" the module
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	// Old code path still executes — with the old key in the old GOT.
	c := k.CPU(0)
	got, err := c.Call(oldEntry)
	if err != nil {
		t.Fatalf("pending-call path through old mapping failed: %v", err)
	}
	if got != 1 {
		t.Fatalf("old-mapping call = %d, want 1", got)
	}
	k.SMR.Leave(2)
	k.SMR.Flush()
	// Now the old mapping is gone; the same address must fault.
	if _, err := c.Call(oldEntry); err == nil {
		t.Fatal("old mapping still executable after drain")
	}
}

func TestObsoleteAddressesBecomeUseless(t *testing.T) {
	// §6: hijacked addresses go stale within one period. After a step and
	// drain, every page of the old range is unmapped.
	k, r, mod, _ := setup(t, plugin.Options{})
	oldBase := mod.Base()
	pages := mod.Movable.Pages
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	k.SMR.Flush()
	for pg := 0; pg < pages; pg++ {
		if _, _, ok := k.AS.Lookup(oldBase + uint64(pg)*4096); ok {
			t.Fatalf("old page %d still mapped", pg)
		}
	}
}

func TestKeyRotatesEveryStep(t *testing.T) {
	k, r, mod, _ := setup(t, plugin.Options{RetEncrypt: true})
	_ = k
	seen := map[uint64]bool{mod.Key(): true}
	for i := 0; i < 10; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		key := mod.Key()
		if seen[key] {
			t.Fatalf("key repeated at step %d", i)
		}
		seen[key] = true
	}
}

func TestStepReportCosts(t *testing.T) {
	_, r, _, _ := setup(t, plugin.Options{StackRerand: true})
	rep, err := r.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesRemapped == 0 || rep.GotEntries == 0 || rep.Cycles == 0 {
		t.Fatalf("empty step report: %+v", rep)
	}
	want := uint64(rep.ModulesMoved)*CostBase + rep.PagesRemapped*CostPerPage +
		rep.GotEntries*CostPerEntry + uint64(rep.StacksRetired)*CostPerStack
	if rep.Cycles != want {
		t.Fatalf("cycles = %d, want %d", rep.Cycles, want)
	}
}

func TestAddRejectsPlainModules(t *testing.T) {
	k, err := kernel.New(kernel.Config{NumCPUs: 2, Seed: 1, KASLR: kernel.KASLRFull64})
	if err != nil {
		t.Fatal(err)
	}
	r := New(k)
	m := &kcc.Module{Name: "plain"}
	m.AddFunc("f", true, kcc.Ret())
	obj, err := kcc.Compile(m, kcc.Options{Model: kcc.ModelPIC})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Load(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(mod); err == nil {
		t.Fatal("plain module accepted by randomizer")
	}
}

func TestLogDmesgFormat(t *testing.T) {
	k, r, _, va := setup(t, plugin.Options{StackRerand: true})
	if _, err := k.CPU(0).Call(va); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	r.LogDmesg()
	log := strings.Join(k.Dmesg(), "\n")
	for _, want := range []string{"Randomized 1 times", "SMR Retire:", "Stack Alloc:", "Stack Delta:"} {
		if !strings.Contains(log, want) {
			t.Fatalf("dmesg missing %q:\n%s", want, log)
		}
	}
}

// TestStepAllocBudget bounds what a warm step allocates. Every step
// moves the module to a fresh page-table path; the address space reuses
// the tables the previous step's unmap reclaimed and writes each PTE in
// place, so a step allocates no table and nothing per mapped page.
// Measured on go1.24 linux/amd64: 7 objects a step, 136 bytes (160
// under -race, the budget). A step that allocated its table path would
// read about 19.7 KB.
func TestStepAllocBudget(t *testing.T) {
	k, r, _, _ := setup(t, plugin.Options{Retpoline: true, StackRerand: true, RetEncrypt: true})
	step := func() {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		k.SMR.Flush()
	}
	step() // warm-up: the first unmap fills the spare lists
	const steps, maxBytes, maxObjects = 8, 160, 7
	// MemStats counts the whole process. Restarting the world after
	// ReadMemStats may wake an idle P and start an OS thread for it, and
	// the runtime allocates the thread's M and g0 stack inside the window
	// (a memory profile of a failing run showed runtime.allocm under
	// startTheWorld). With one P, as testing.AllocsPerRun runs, there is
	// no idle P to wake.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&ms1)
	bytes, objects := (ms1.TotalAlloc-ms0.TotalAlloc)/steps, float64(ms1.Mallocs-ms0.Mallocs)/steps
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("a warm step allocates %d bytes in %v objects, budget %d bytes in %d", bytes, objects, maxBytes, maxObjects)
	}
}

func BenchmarkStep(b *testing.B) {
	k, err := kernel.New(kernel.Config{NumCPUs: 4, Seed: 5, KASLR: kernel.KASLRFull64})
	if err != nil {
		b.Fatal(err)
	}
	r := New(k)
	obj, err := plugin.Build(counterDriver(), plugin.Options{Retpoline: true, StackRerand: true, RetEncrypt: true})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := k.Load(obj)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Add(mod); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
		k.SMR.Flush()
	}
}
