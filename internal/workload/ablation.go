package workload

import (
	"fmt"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/rerand"
	"adelie/internal/sim"
	"adelie/internal/smr"
)

// Ablations for the design choices DESIGN.md calls out: the loader's
// Fig.-4 run-time patching (§4.1 claims it "substantially reduces the
// total number of GOT and PLT entries") and the choice of Hyaline over
// EBR/QSBR for delayed unmapping (§3.4).

// ---------------------------------------------------------------------------
// Fig.-4 patching ablation.

// PatchRow compares one driver loaded with and without the loader's
// local-symbol patching.
type PatchRow struct {
	Driver string

	GotEntriesPatched   int // GOT slots with Fig. 4 enabled
	GotEntriesUnpatched int // GOT slots with it disabled
	StubsPatched        int
	StubsUnpatched      int
	CallsPatched        int // call sites rewritten to direct calls
	LoadsPatched        int // GOT loads rewritten to lea

	MopsPatched   float64 // dummy-ioctl style throughput, patched
	MopsUnpatched float64
}

// Default seeds of the three ablations (the registry descriptor's seed
// params: "seed" drives A, "smrseed" B, "mechseed" C).
const (
	seedAblationPatching  int64 = 111
	seedAblationSMR       int64 = 222
	seedAblationMechanism int64 = 333
)

// patchingAblation loads each driver under retpoline PIC with the Fig.-4
// optimizations on and off, and measures the table sizes plus the
// dummy driver's call rate both ways.
func patchingAblation(seed int64, ops int) ([]PatchRow, error) {
	names := []string{"dummy", "nvme", "e1000e", "ext4", "fuse", "xhci"}
	var rows []PatchRow
	for _, name := range names {
		row := PatchRow{Driver: name}
		for _, disabled := range []bool{false, true} {
			k, err := kernel.New(kernel.Config{
				NumCPUs: 20, Seed: seed, KASLR: kernel.KASLRFull64,
				DisableFig4Patching: disabled,
			})
			if err != nil {
				return nil, err
			}
			r := rerand.New(k)
			_ = r // stack natives registered for StackRerand builds
			obj, err := drivers.Build(drivers.All()[name](), drivers.BuildOpts{
				PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true,
			})
			if err != nil {
				return nil, err
			}
			mod, err := k.Load(obj)
			if err != nil {
				return nil, err
			}
			got := len(mod.Movable.GotFixed.Slots) + len(mod.Movable.GotLocal.Slots) +
				len(mod.Immovable.GotFixed.Slots) + len(mod.Immovable.GotLocal.Slots)
			if disabled {
				row.GotEntriesUnpatched = got
				row.StubsUnpatched = mod.PltStubsBuilt
			} else {
				row.GotEntriesPatched = got
				row.StubsPatched = mod.PltStubsBuilt
				row.CallsPatched = mod.CallsPatched
				row.LoadsPatched = mod.GotLoadsPatched
			}
			// Throughput for the dummy driver only (the others lack a
			// zero-argument hot entry point).
			if name == "dummy" {
				va, ok := k.Symbol("dummy_ioctl")
				if !ok {
					continue
				}
				c := k.CPU(0)
				start := c.Cycles
				for i := 0; i < ops; i++ {
					if _, err := c.Call(va, 0); err != nil {
						return nil, err
					}
				}
				perOp := float64(c.Cycles-start)/float64(ops) + float64(SyscallEntry)
				mops := sim.CPUHz / perOp / 1e6
				if disabled {
					row.MopsUnpatched = mops
				} else {
					row.MopsPatched = mops
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// SMR scheme ablation.

// SMRRow compares the reclamation schemes as the delayed-unmap backend.
type SMRRow struct {
	Scheme string
	// DeltaAfterSteps is the retired-but-not-freed backlog after a burst
	// of re-randomizations with live call traffic and NO external
	// driving — the property that makes Hyaline kernel-friendly (§3.4):
	// its readers reclaim on their own way out.
	DeltaAfterSteps int64
	// DeltaAfterFlush is the backlog after explicit driving (all schemes
	// must reach zero).
	DeltaAfterFlush int64
	// StepCycles is the modeled cost of one re-randomization pass.
	StepCycles uint64
}

// smrAblation runs the same re-randomization burst under Hyaline, EBR and
// QSBR.
func smrAblation(seed int64) ([]SMRRow, error) {
	mk := func(name string, ncpu int) smr.Reclaimer {
		switch name {
		case "hyaline":
			return smr.NewHyaline(ncpu + 1)
		case "ebr":
			return smr.NewEBR(ncpu + 1)
		default:
			return smr.NewQSBR(ncpu + 1)
		}
	}
	var rows []SMRRow
	for _, scheme := range []string{"hyaline", "ebr", "qsbr"} {
		const ncpu = 4
		k, err := kernel.New(kernel.Config{
			NumCPUs: ncpu, Seed: seed, KASLR: kernel.KASLRFull64,
			Reclaimer: mk(scheme, ncpu),
		})
		if err != nil {
			return nil, err
		}
		r := rerand.New(k)
		obj, err := drivers.Build(drivers.Dummy("dummy"), drivers.BuildOpts{
			PIC: true, Retpoline: true, Rerand: true, StackRerand: true, RetEncrypt: true,
		})
		if err != nil {
			return nil, err
		}
		mod, err := k.Load(obj)
		if err != nil {
			return nil, err
		}
		if err := r.Add(mod); err != nil {
			return nil, err
		}
		va, _ := k.Symbol("dummy_ioctl")
		c := k.CPU(0)

		row := SMRRow{Scheme: scheme}
		for i := 0; i < 10; i++ {
			rep, err := r.Step()
			if err != nil {
				return nil, err
			}
			row.StepCycles = rep.Cycles
			// Live traffic between steps: wrapped calls enter and leave
			// critical sections, which is all the driving Hyaline needs.
			for j := 0; j < 5; j++ {
				if _, err := c.Call(va, 0); err != nil {
					return nil, err
				}
			}
		}
		row.DeltaAfterSteps = k.SMR.Stats().Delta()
		k.SMR.Flush()
		row.DeltaAfterFlush = k.SMR.Stats().Delta()
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Plugin-option cost ablation (fills in between the Fig. 9 bars).

// MechanismRow isolates the cost of one instrumentation mechanism.
type MechanismRow struct {
	Mechanism  string
	MopsPerSec float64
}

// mechanismAblation measures the dummy-ioctl rate with each mechanism
// enabled incrementally: plain PIC → wrappers → +encryption → +stack.
func mechanismAblation(seed int64, ops int) ([]MechanismRow, error) {
	cases := []struct {
		name string
		opts drivers.BuildOpts
	}{
		{"pic", drivers.BuildOpts{PIC: true, Retpoline: true}},
		{"wrappers", drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true}},
		{"wrappers+encrypt", drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true}},
		{"wrappers+encrypt+stack", drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true, StackRerand: true}},
	}
	var rows []MechanismRow
	for _, cse := range cases {
		m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: seed, KASLR: kernel.KASLRFull64})
		if err != nil {
			return nil, err
		}
		if _, err := m.LoadDriver("dummy", cse.opts); err != nil {
			return nil, err
		}
		va, err := callVA(m, "dummy_ioctl")
		if err != nil {
			return nil, err
		}
		res, err := m.Run(sim.RunConfig{Ops: ops, Workers: 1, SyscallCycles: syscallCost(CfgRerandStack)},
			func(c *cpu.CPU) (uint64, error) {
				_, err := c.Call(va, 0)
				return 0, err
			})
		m.Release()
		if err != nil {
			return nil, err
		}
		rows = append(rows, MechanismRow{Mechanism: cse.name, MopsPerSec: res.OpsPerSec / 1e6})
	}
	return rows, nil
}

var expAblation = &Experiment{
	Name:   "ablation",
	Figure: "Fig. 4 / §3.4 / §4.1",
	Doc:    "design ablations: loader patching, SMR scheme, per-mechanism cost",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "ioctl calls per patching measurement", Default: 2000, Quick: 500, Min: 1},
		{Name: "mechops", Doc: "ioctl calls per mechanism measurement", Default: 6000, Quick: 1500},
		{Name: "seed", Doc: "kernel seed for the patching ablation", Default: seedAblationPatching},
		{Name: "smrseed", Doc: "kernel seed for the SMR ablation", Default: seedAblationSMR},
		{Name: "mechseed", Doc: "machine seed for the mechanism ablation", Default: seedAblationMechanism},
	},
	Run: func(p Params) (*Table, error) {
		prows, err := patchingAblation(p.Int64("seed"), p.Int("ops"))
		if err != nil {
			return nil, err
		}
		a := &Table{
			Title: "Ablation A — loader run-time patching (paper Fig. 4 / §4.1)",
			Columns: []Column{
				Col("driver", "%-8s", "%-8s"),
				Col("GOT entries", "%s", "%18s"),
				Col("PLT stubs", "%s", "%14s"),
				Col("patched sites", "%s", "%16s"),
			},
		}
		for _, r := range prows {
			a.AddRow(r.Driver,
				fmt.Sprintf("%8d → %-7d", r.GotEntriesUnpatched, r.GotEntriesPatched),
				fmt.Sprintf("%5d → %-6d", r.StubsUnpatched, r.StubsPatched),
				fmt.Sprintf("%7d+%d", r.CallsPatched, r.LoadsPatched))
		}
		for _, r := range prows {
			if r.Driver == "dummy" {
				a.Notef("dummy ioctl rate: %.3f Mops/s patched vs %.3f unpatched",
					r.MopsPatched, r.MopsUnpatched)
			}
		}

		srows, err := smrAblation(p.Int64("smrseed"))
		if err != nil {
			return nil, err
		}
		b := &Table{
			Title: "Ablation B — SMR scheme as the delayed-unmap backend (§3.4)",
			Columns: []Column{
				Col("scheme", "%-10s", "%-10s"),
				Col("backlog (no driving)", "%22d", "%22s"),
				Col("after flush", "%18d", "%18s"),
				Col("step cycles", "%12d", "%12s"),
			},
		}
		for _, r := range srows {
			b.AddRow(r.Scheme, r.DeltaAfterSteps, r.DeltaAfterFlush, r.StepCycles)
		}

		mrows, err := mechanismAblation(p.Int64("mechseed"), p.Int("mechops"))
		if err != nil {
			return nil, err
		}
		c := &Table{
			Title: "Ablation C — per-mechanism instrumentation cost",
			Columns: []Column{
				Col("mechanisms", "%-24s", "%-24s"),
				Col("Mops/s", "%10.3f", "%10s"),
				{Name: "vs pic", Head: "vs pic", Fmt: "%9.1f%%", HeadFmt: "%10s"},
			},
		}
		base := mrows[0].MopsPerSec
		for _, r := range mrows {
			c.AddRow(r.Mechanism, r.MopsPerSec, (r.MopsPerSec/base-1)*100)
		}

		a.Children = []*Table{b, c}
		return a, nil
	},
	Headline: func(t *Table) map[string]float64 {
		mech := t.Children[1]
		first := mech.Rows[0][1].(float64)
		last := mech.Rows[len(mech.Rows)-1][1].(float64)
		return map[string]float64{"full-instr-cost-pct": (1 - last/first) * 100}
	},
}
