package attack

import (
	"fmt"

	"adelie/internal/cpu"
	"adelie/internal/isa"
	"adelie/internal/kernel"
	"adelie/internal/mm"
)

// JITROPConfig models the attacker's speed. The paper's §6 observes that
// all known JIT-ROP attacks need seconds end-to-end while Adelie's
// re-randomization periods are milliseconds; the defaults reflect a fast
// attacker well inside the published range.
type JITROPConfig struct {
	LeakMicros     float64 // initial pointer leak (info-leak exploitation)
	PageReadMicros float64 // disclosing one page of code via the read primitive
	AnalyzeMicros  float64 // gadget search + chain assembly, per page read
	TriggerMicros  float64 // firing the overflow and pivoting
}

// DefaultJITROP is an aggressive attacker: ~60 ms end-to-end for a small
// module — an order of magnitude faster than published attacks.
var DefaultJITROP = JITROPConfig{
	LeakMicros:     20_000,
	PageReadMicros: 2_000,
	AnalyzeMicros:  1_500,
	TriggerMicros:  5_000,
}

// TotalMicros estimates the end-to-end attack time against a module with
// the given number of disclosed text pages.
func (c JITROPConfig) TotalMicros(pages int) float64 {
	return c.LeakMicros + float64(pages)*(c.PageReadMicros+c.AnalyzeMicros) + c.TriggerMicros
}

// JITROPOutcome reports one simulated attack.
type JITROPOutcome struct {
	Succeeded     bool
	Reason        string
	ElapsedMicros float64
	PagesRead     int
	GadgetsFound  int
}

// SimulateJITROP runs a just-in-time ROP attack against a loaded module:
//
//  1. the attacker leaks the module's current base (info leak);
//  2. discloses the movable text pages through a read primitive and scans
//     them for gadgets (this is why mere code-reuse defenses without
//     re-randomization fail — the attacker reads the *current* layout);
//  3. builds an NX-disable chain and fires it via a stack overflow.
//
// rerandPeriodMicros is the module's re-randomization period (0 = no
// re-randomization, i.e. vanilla). If the attack's elapsed time crosses a
// period boundary, the module is actually moved (doRerand) before the
// chain fires, so the payload executes against stale addresses — the
// simulation runs the payload on a real vCPU either way and reports what
// physically happened.
func SimulateJITROP(k *kernel.Kernel, mod *kernel.Module, cfg JITROPConfig,
	rerandPeriodMicros float64, doRerand func() error) JITROPOutcome {

	var out JITROPOutcome

	// (1) + (2): disclose the movable text.
	base := mod.Base()
	textPages := mod.Movable.Pages
	code, err := k.AS.ReadBytes(base, textPages*mm.PageSize)
	if err != nil {
		out.Reason = fmt.Sprintf("disclosure failed: %v", err)
		return out
	}
	out.PagesRead = textPages
	gadgets := Scan(code, base)
	out.GadgetsFound = len(gadgets)
	out.ElapsedMicros = cfg.TotalMicros(textPages)

	// Target: a kernel function the chain diverts control to.
	target, ok := k.Symbol("set_memory_x")
	if !ok {
		target = k.KernelTextBase() // any fixed kernel address suffices
	}
	chain, err := BuildNXChain(gadgets, target, [3]uint64{base, uint64(textPages), 7})
	if err != nil {
		out.Reason = fmt.Sprintf("no chain: %v", err)
		return out
	}

	// (3) The clock: if re-randomization fired during the attack, the
	// harvested addresses are already stale when the payload lands.
	if rerandPeriodMicros > 0 && out.ElapsedMicros >= rerandPeriodMicros {
		if doRerand != nil {
			if err := doRerand(); err != nil {
				out.Reason = fmt.Sprintf("rerand failed: %v", err)
				return out
			}
		}
	}

	// Fire the payload on a real vCPU: write the chain past a "buffer"
	// on the stack and return into it.
	if err := ExecuteChain(k, chain); err != nil {
		out.Reason = fmt.Sprintf("payload faulted: %v", err)
		return out
	}
	out.Succeeded = true
	out.Reason = "chain executed"
	return out
}

// ExecuteChain runs a ROP payload on a fresh vCPU: the chain words are
// written to a stack and control "returns" into the first gadget, exactly
// as a stack overflow would arrange. A nil error means the chain reached
// its target.
func ExecuteChain(k *kernel.Kernel, chain Chain) error {
	c := cpu.New(999, k.AS)
	c.Kernel = k
	c.SetNatives(k.CPU(0).NativeTable())
	top, err := k.AllocStack()
	if err != nil {
		return err
	}
	defer func() { _ = k.FreeStack(top) }()

	// Lay out: [gadget0, val0, gadget1, val1, ..., target, HostReturn].
	words := append(append([]uint64(nil), chain.Words...), cpu.HostReturn)
	sp := top - uint64(len(words))*8
	for i, w := range words {
		if err := k.AS.Write64(sp+uint64(i)*8, w); err != nil {
			return err
		}
	}
	c.Regs[isa.RSP] = sp

	// "Return" into the chain: pop the first gadget address.
	first, err := c.Pop()
	if err != nil {
		return err
	}
	c.RIP = first
	return c.Run(100_000)
}
