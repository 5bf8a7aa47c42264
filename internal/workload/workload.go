// Package workload regenerates every table and figure of the paper's
// evaluation (§5–§6): the workload generators, parameter sweeps, baseline
// configurations and result shaping. Each experiment returns typed rows;
// cmd/benchtool renders them as the tables behind the figures, and
// bench_test.go exposes them as testing.B benchmarks.
package workload

import (
	"fmt"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

// Config names the standard build configurations the evaluation compares
// (§5.1 uses the first four; §5.2–5.3 use the re-randomizable ones).
type Config string

const (
	CfgVanilla     Config = "linux"        // absolute model, no retpoline
	CfgVanillaRet  Config = "linux+ret"    // absolute model, retpoline
	CfgPIC         Config = "pic"          // PIC modules, no retpoline
	CfgPICRet      Config = "pic+ret"      // PIC modules, retpoline
	CfgRerand      Config = "rerand"       // re-randomizable, wrappers only
	CfgRerandStack Config = "rerand+stack" // + stack re-randomization
)

// buildOpts maps a configuration to driver build options.
func buildOpts(c Config) drivers.BuildOpts {
	switch c {
	case CfgVanilla:
		return drivers.BuildOpts{}
	case CfgVanillaRet:
		return drivers.BuildOpts{Retpoline: true}
	case CfgPIC:
		return drivers.BuildOpts{PIC: true}
	case CfgPICRet:
		return drivers.BuildOpts{PIC: true, Retpoline: true}
	case CfgRerand:
		return drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true}
	case CfgRerandStack:
		return drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true, StackRerand: true}
	}
	panic("workload: unknown config " + string(c))
}

// kaslrFor returns the KASLR mode a configuration runs under: non-PIC
// modules need the vanilla 2 GB window; PIC builds get full 64-bit KASLR.
func kaslrFor(c Config) kernel.KASLRMode {
	if c == CfgVanilla || c == CfgVanillaRet {
		return kernel.KASLRVanilla
	}
	return kernel.KASLRFull64
}

// newMachine provides a booted testbed for the configuration with the
// listed drivers loaded. Normally that is a cold boot; while a parallel
// sweep has the fork pool enabled it is a copy-on-write fork of a frozen
// template — indistinguishable by the fork-determinism contract.
func newMachine(c Config, seed int64, driverNames ...string) (*sim.Machine, error) {
	return newMachineQ(c, seed, 1, driverNames...)
}

// newMachineQ is newMachine with an explicit NIC RX queue count (the
// server experiment sweeps it; every legacy figure uses the single-queue
// shape via newMachine).
func newMachineQ(c Config, seed int64, queues int, driverNames ...string) (*sim.Machine, error) {
	if m, ok := poolFork(c, seed, queues, driverNames); ok {
		attachObs(m, c, seed, queues, true, driverNames)
		return m, nil
	}
	if forkPool.on.Load() {
		forkPool.coldBoots.Add(1) // pool miss: unforkable shape or fork failure
	}
	m, err := bootMachineQ(c, seed, queues, driverNames...)
	if err == nil {
		attachObs(m, c, seed, queues, false, driverNames)
	}
	return m, err
}

// testbedCPUs is the vCPU count of every machine bootMachineQ builds:
// the 20-core Table-1 server.
const testbedCPUs = 20

// bootMachineQ cold-boots a testbed with the given NIC RX queue count
// and loads the listed drivers.
func bootMachineQ(c Config, seed int64, queues int, driverNames ...string) (*sim.Machine, error) {
	m, err := sim.NewMachine(sim.Config{NumCPUs: testbedCPUs, Seed: seed, KASLR: kaslrFor(c), NICQueues: queues})
	if err != nil {
		return nil, err
	}
	for _, d := range driverNames {
		if _, err := m.LoadDriver(d, buildOpts(c)); err != nil {
			return nil, fmt.Errorf("workload: %s/%s: %w", c, d, err)
		}
	}
	return m, nil
}

// Nominal native-path costs (cycles). SyscallEntry covers user→kernel
// transition plus the core-kernel path down to the driver; the app costs
// stand in for the server software the paper runs unmodified (mySQL,
// Apache), which executes in user space and is not instrumented.
const (
	SyscallEntry  = 1800    // syscall + VFS / socket layer
	PageCopyCost  = 700     // copying one 4 KB page out of the buffer cache
	OLTPQueryCost = 420_000 // mySQL-side work per query
	HTTPAppCost   = 90_000  // Apache-side work per request
	CompileOpCost = 3_000   // per syscall of the kernbench mix
)

// syscallCost returns the per-syscall kernel-path cost for a
// configuration: retpoline-enabled kernels pay extra for every indirect
// call in the core-kernel path (§2.5), independent of the module model.
func syscallCost(c Config) uint64 {
	switch c {
	case CfgVanilla, CfgPIC:
		return SyscallEntry
	}
	return SyscallEntry + RetpolineKernelTax
}

// RetpolineKernelTax is the added core-kernel cost per syscall under the
// retpoline mitigation.
const RetpolineKernelTax = 260

// callVA resolves a symbol once; per-op lookups would distort cycle
// accounting.
func callVA(m *sim.Machine, sym string) (uint64, error) {
	va, ok := m.K.Symbol(sym)
	if !ok {
		return 0, fmt.Errorf("workload: symbol %q not exported", sym)
	}
	return va, nil
}

// burn charges pure-CPU work to the vCPU without interpreting code — the
// stand-in for uninstrumented native paths (buffer-cache copies,
// user-space server work).
func burn(c *cpu.CPU, cycles uint64) { c.Cycles += cycles }
