package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/sim"
)

// Determinism tests: every experiment must reproduce bit-identically
// under its fixed seed, which is what makes EXPERIMENTS.md's recorded
// numbers verifiable.

// TestSuperblockRetirementDeterministic drives a driver path through the
// full engine twice and requires identical RunResults — including the
// count of basic blocks retired by superblock execution, which must be
// nonzero (the hot path is actually in use) and lane-order independent.
func TestSuperblockRetirementDeterministic(t *testing.T) {
	wasChain, wasIndirect := cpu.SetChaining(true), cpu.SetIndirect(true)
	t.Cleanup(func() { cpu.SetChaining(wasChain); cpu.SetIndirect(wasIndirect) })
	run := func() sim.RunResult {
		m, err := newMachine(CfgPICRet, 411, "dummy")
		if err != nil {
			t.Fatal(err)
		}
		ioctlVA, err := callVA(m, "dummy_ioctl")
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(sim.RunConfig{Ops: 300, Workers: 8, SyscallCycles: SyscallEntry},
			func(c *cpu.CPU) (uint64, error) {
				_, err := c.Call(ioctlVA, 1)
				return 0, err
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunResult not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Blocks == 0 {
		t.Fatal("no superblocks retired; hot path not in use")
	}
	if a.ChainedBlocks == 0 {
		t.Fatal("no blocks entered via trace links; chaining not in use on the hot path")
	}
}

// TestRegistryChainedUnchainedEquivalent is the cross-mode contract the
// CI equivalence gate enforces at -quick scale: every registered
// experiment must produce a bit-identical Table with trace linking
// disabled (cpu.SetChaining / ADELIE_NOCHAIN=1). Charged cycles can only
// diverge when a followed link's successor translation would have missed
// the TLB on the dispatch path — the same capacity-pressure exception
// superblock execution documents against single-stepping — and every
// registered experiment's working set is TLB-resident.
func TestRegistryChainedUnchainedEquivalent(t *testing.T) {
	for _, e := range Experiments.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			run := func() *Table {
				p := e.Params(true)
				for k, v := range determinismOverrides[e.Name] {
					if err := p.Set(k, v); err != nil {
						t.Fatal(err)
					}
				}
				tab, err := e.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				return tab
			}
			chained := run()
			was := cpu.SetChaining(false)
			t.Cleanup(func() { cpu.SetChaining(was) }) // restore even when run() t.Fatals
			unchained := run()
			if !reflect.DeepEqual(chained, unchained) {
				t.Errorf("chained and unchained tables differ:\n%+v\n%+v", chained, unchained)
			}
		})
	}
}

// TestRegistryIndirectOffEquivalent is the middle column of the
// three-mode matrix: every registered experiment must produce a
// bit-identical Table with the monomorphic indirect target cache
// disabled (cpu.SetIndirect / ADELIE_NOINDIRECT=1) while direct links
// stay on. Same TLB-resident working-set argument as the chained/
// unchained contract above.
func TestRegistryIndirectOffEquivalent(t *testing.T) {
	for _, e := range Experiments.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			run := func() *Table {
				p := e.Params(true)
				for k, v := range determinismOverrides[e.Name] {
					if err := p.Set(k, v); err != nil {
						t.Fatal(err)
					}
				}
				tab, err := e.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				return tab
			}
			full := run()
			was := cpu.SetIndirect(false)
			t.Cleanup(func() { cpu.SetIndirect(was) }) // restore even when run() t.Fatals
			directOnly := run()
			if !reflect.DeepEqual(full, directOnly) {
				t.Errorf("full and direct-only tables differ:\n%+v\n%+v", full, directOnly)
			}
		})
	}
}

// determinismOverrides shrinks each experiment's work below even its
// -quick scale so the registry-wide rerun test stays fast; the values
// mirror the op counts the old per-figure determinism tests used.
var determinismOverrides = map[string]map[string]int64{
	"fig5a":       {"ops": 4},
	"fig5b":       {"ops": 200},
	"fig5d":       {"conc": 20},
	"fig7":        {"ops": 60, "conc": 50},
	"fig8":        {"ops": 30, "block": 512, "conc": 20},
	"fig9":        {"ops": 500},
	"fig10":       {"ops": 10},
	"table2":      {"ops": 40},
	"scalability": {"mods": 10},
	"server":      {"ops": 24},
}

// TestRegistryExperimentsDeterministic is the registry-wide determinism
// contract: every registered experiment, rerun with identical params,
// must produce a bit-identical Table — same typed cells, same rendered
// bytes. This is what makes the recorded figures verifiable and lets CI
// treat any drift as a bug.
func TestRegistryExperimentsDeterministic(t *testing.T) {
	for _, e := range Experiments.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			run := func() (*Table, string) {
				p := e.Params(true)
				for k, v := range determinismOverrides[e.Name] {
					if err := p.Set(k, v); err != nil {
						t.Fatal(err)
					}
				}
				tab, err := e.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				tab.Fprint(&buf)
				return tab, buf.String()
			}
			ta, ra := run()
			tb, rb := run()
			if !reflect.DeepEqual(ta, tb) {
				t.Errorf("tables differ across reruns:\n%+v\n%+v", ta, tb)
			}
			if ra != rb {
				t.Errorf("rendered output differs across reruns:\n%s\n---\n%s", ra, rb)
			}
			if len(ta.Rows) == 0 && len(ta.Children) == 0 {
				t.Error("experiment produced an empty table")
			}
		})
	}
}

// TestNICInterruptDeterministic is the interrupt-path determinism
// contract: frame injection, coalescing decisions, ring overruns and
// ISR dispatches all ride the barrier-synchronized clock, so repeated
// runs must produce identical RunResults (including IRQ counts and
// cycles), identical NIC/driver counters, and an identical delivery
// order (line, cycle) trace — while actually overflowing the RX ring
// with coalescing enabled.
func TestNICInterruptDeterministic(t *testing.T) {
	type outcome struct {
		row CoalesceRow
		res sim.RunResult
	}
	run := func() (outcome, []string) {
		// maxFrames=16 on a 16-slot ring defers drains past ring
		// capacity: overruns are part of the scenario under test.
		var o outcome
		var err error
		trace := tracedISR(t, func() { o.row, o.res, err = nicCoalesce(seedCoalesce, 16, 200, 240) })
		if err != nil {
			t.Fatal(err)
		}
		return o, trace
	}
	a, at := run()
	b, bt := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("coalescing run not deterministic:\n%+v\n%+v", a, b)
	}
	if len(at) == 0 {
		t.Fatal("no interrupts delivered")
	}
	if strings.Join(at, ",") != strings.Join(bt, ",") {
		t.Fatalf("delivery order differs:\n%v\n%v", at, bt)
	}
	if a.row.Dropped == 0 {
		t.Fatal("scenario did not overrun the RX ring; overflow path untested")
	}
	if a.row.DrainedRx == 0 || a.res.IRQs == 0 {
		t.Fatalf("ISR never drained: %+v", a.row)
	}
}

// TestISRDeliveryUnaffectedByChaining: trace linking must never carry a
// chain across the engine's barrier-synchronized clock boundary, so an
// ISR "arriving mid-chain" — a line raised while lanes retire linked
// blocks inside a round — is still delivered at exactly the same
// boundary, in the same order, with the same cycle stamps as unchained
// execution. The scenario overflows the RX ring under coalescing so
// drops, drains and re-asserted lines are all in play.
func TestISRDeliveryUnaffectedByChaining(t *testing.T) {
	wasChain, wasIndirect := cpu.SetChaining(true), cpu.SetIndirect(true)
	t.Cleanup(func() { cpu.SetChaining(wasChain); cpu.SetIndirect(wasIndirect) })
	run := func() (CoalesceRow, sim.RunResult, []string) {
		var (
			row CoalesceRow
			res sim.RunResult
			err error
		)
		trace := tracedISR(t, func() { row, res, err = nicCoalesce(seedCoalesce, 16, 200, 240) })
		if err != nil {
			t.Fatal(err)
		}
		return row, res, trace
	}
	rowC, resC, traceC := run()
	was := cpu.SetChaining(false)
	t.Cleanup(func() { cpu.SetChaining(was) }) // restore even when run() t.Fatals
	rowU, resU, traceU := run()
	if resC.ChainedBlocks == 0 || resU.ChainedBlocks != 0 {
		t.Fatalf("mode mix-up: chained=%d unchained=%d links followed",
			resC.ChainedBlocks, resU.ChainedBlocks)
	}
	resC.ChainedBlocks, resU.ChainedBlocks = 0, 0
	resC.IndirectChained, resU.IndirectChained = 0, 0
	if rowC != rowU || !reflect.DeepEqual(resC, resU) {
		t.Fatalf("coalescing outcome differs across modes:\n%+v %+v\n%+v %+v", rowC, resC, rowU, resU)
	}
	if strings.Join(traceC, ",") != strings.Join(traceU, ",") {
		t.Fatalf("IRQ delivery order differs across modes:\n%v\n%v", traceC, traceU)
	}
}

// TestDDChainRate pins the dd hot path's trace-link rates: nearly every
// retired basic block must be entered through a followed link, and a
// share of them through the monomorphic indirect target cache. The
// figures stay identical with linking off, so only these counters show
// the hot path falling back to the dispatch loop. Both rates are
// simulator counts, the same on every host (measured: 99.98% chained,
// 8.86% via the indirect cache).
func TestDDChainRate(t *testing.T) {
	wasChain, wasIndirect := cpu.SetChaining(true), cpu.SetIndirect(true)
	t.Cleanup(func() { cpu.SetChaining(wasChain); cpu.SetIndirect(wasIndirect) })
	row, err := dd(seedFig5b, CfgPICRet, 64, 200)
	if err != nil {
		t.Fatal(err)
	}
	if row.Blocks == 0 {
		t.Fatal("dd retired no superblocks")
	}
	chain := 100 * float64(row.ChainedBlocks) / float64(row.Blocks)
	ichain := 100 * float64(row.IndirectChained) / float64(row.Blocks)
	if chain < 99.9 {
		t.Errorf("chained blocks = %.2f%% of %d, want >= 99.9%%", chain, row.Blocks)
	}
	if ichain < 5 {
		t.Errorf("indirect-chained blocks = %.2f%% of %d, want >= 5%%", ichain, row.Blocks)
	}
	// Exact counters: a change to execution, accounting or linking that
	// keeps the rates above still moves one of these.
	want := DDRow{Insts: 169728, Cycles: 2441828, Blocks: 36096, ChainedBlocks: 36089, IndirectChained: 3199}
	got := DDRow{Insts: row.Insts, Cycles: row.Cycles, Blocks: row.Blocks, ChainedBlocks: row.ChainedBlocks, IndirectChained: row.IndirectChained}
	if got != want {
		t.Errorf("dd counters = %+v, want %+v", got, want)
	}
}

// TestCoalescingSweepDistinct: the acceptance property — the max-frames
// sweep produces *distinct* RX-latency/IRQ/drop curves, not one curve
// relabeled. Latency must rise monotonically with the threshold and the
// interrupt rate must fall.
func TestCoalescingSweepDistinct(t *testing.T) {
	rows, err := nicCoalesceSweep(seedCoalesce, 100, 240)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].AvgIRQLatUs <= rows[i-1].AvgIRQLatUs {
			t.Fatalf("RX latency not rising with coalescing: %+v", rows)
		}
		if rows[i].IRQsRaised >= rows[i-1].IRQsRaised {
			t.Fatalf("IRQ rate not falling with coalescing: %+v", rows)
		}
	}
	// Aggressive coalescing on the small ring must overrun; per-frame
	// interrupts must not.
	if rows[0].Dropped != 0 {
		t.Fatalf("per-frame config dropped %d frames", rows[0].Dropped)
	}
	if rows[2].Dropped == 0 {
		t.Fatalf("max-frames=16 config never overran the ring: %+v", rows[2])
	}
	// Everything the wire kept was eventually drained by the ISR.
	for _, r := range rows {
		if r.DrainedRx != r.RxFrames {
			t.Fatalf("frames lost between ring and ISR: %+v", r)
		}
	}
}

// TestSeedParamMovesEveryExperiment: overriding the standard seed param
// must actually reach the machines — a different seed may change the
// table, and the same non-default seed must still be deterministic.
// (KASLR placement differs per seed, but most figure *metrics* are
// placement-independent by design, so this checks determinism under
// override rather than that outputs differ.)
func TestSeedParamMovesEveryExperiment(t *testing.T) {
	e, ok := Experiments.Lookup("scalability")
	if !ok {
		t.Fatal("scalability not registered")
	}
	run := func(seed int64) *Table {
		p := e.Params(true)
		if err := p.Set("mods", 5); err != nil {
			t.Fatal(err)
		}
		if err := p.Set("seed", seed); err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b := run(1234), run(1234)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-default seed not deterministic:\n%+v\n%+v", a, b)
	}
	// The override must actually reach the machines, not just be
	// declared: the security experiment's brute-force campaign is
	// seed-sensitive (probe order derives from the seed), so a different
	// seed must change its table while staying deterministic itself.
	sec, ok := Experiments.Lookup("security")
	if !ok {
		t.Fatal("security not registered")
	}
	runSec := func(seed int64) *Table {
		p := sec.Params(true)
		if err := p.Set("seed", seed); err != nil {
			t.Fatal(err)
		}
		tab, err := sec.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	def, moved := runSec(seedSecurity), runSec(seedSecurity+1)
	if reflect.DeepEqual(def, moved) {
		t.Error("security table identical under a different seed; -p seed= override is not reaching the experiment")
	}
	if again := runSec(seedSecurity + 1); !reflect.DeepEqual(moved, again) {
		t.Error("security not deterministic under an overridden seed")
	}
	// Every experiment that boots a machine or kernel declares "seed".
	for _, e := range Experiments.All() {
		switch e.Name {
		case "fig1", "fig10", "table2": // corpus-only, no kernel boot
			continue
		}
		found := false
		for _, s := range e.ParamSpecs {
			if s.Name == "seed" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no standard seed param", e.Name)
		}
	}
}
