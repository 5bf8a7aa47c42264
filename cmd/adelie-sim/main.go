// Command adelie-sim boots the simulated testbed, loads a set of drivers
// as re-randomizable modules, serves a fixed number of driver calls
// under continuous re-randomization, and prints the artifact-style dmesg
// status — the interactive demonstration of the paper's system working
// end to end.
//
//	adelie-sim -modules e1000e,nvme -period 20ms -ops 50000
//
// mirrors the artifact's `modprobe randmod module_names=e1000,nvme
// rand_period=20`. The period is simulated time: the re-randomizer runs
// on the machine's virtual clock, so two runs with the same flags print
// identical output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adelie/internal/cpu"
	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

func main() {
	modules := flag.String("modules", "e1000e,nvme", "comma-separated drivers to re-randomize")
	period := flag.Duration("period", 20*time.Millisecond, "re-randomization period (simulated time)")
	ops := flag.Int("ops", 50000, "driver calls to serve")
	seed := flag.Int64("seed", 1, "rng seed")
	flag.Parse()

	if err := run(*modules, *period, *ops, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "adelie-sim:", err)
		os.Exit(1)
	}
}

func run(modules string, period time.Duration, ops int, seed int64) error {
	if period < time.Microsecond || ops <= 0 {
		return fmt.Errorf("-period must be at least 1µs and -ops positive (got %v, %d)", period, ops)
	}
	m, err := sim.NewMachine(sim.Config{NumCPUs: 20, Seed: seed, KASLR: kernel.KASLRFull64})
	if err != nil {
		return err
	}
	opts := drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, StackRerand: true, RetEncrypt: true}
	// Split and trim the module list once; every loop below reuses the
	// cleaned names.
	var names []string
	for _, name := range strings.Split(modules, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-modules names no driver")
	}
	for _, name := range names {
		mod, err := m.LoadDriver(name, opts)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %-8s movable@%#x (%d pages) immovable@%#x  key=%#x\n",
			mod.Name, mod.Base(), mod.Movable.Pages, mod.Immovable.Base, mod.Key())
	}
	for _, name := range names {
		switch name {
		case "nvme":
			if err := m.InitNVMe(); err != nil {
				return err
			}
		case "e1000e", "e1000", "ena":
			if _, err := m.InitNIC(name); err != nil {
				return err
			}
		case "xhci":
			if err := m.InitXHCI(); err != nil {
				return err
			}
		}
	}
	m.K.Printk("Randomize: kthread started")

	// Serve the drivers' calls in turn while the re-randomizer steps on
	// the machine's virtual clock every period.
	buf, err := m.K.Kmalloc(512)
	if err != nil {
		return err
	}
	calls := 0
	res, err := m.Run(sim.RunConfig{Ops: ops, RerandPeriodUs: float64(period.Microseconds())}, func(c *cpu.CPU) (uint64, error) {
		n := calls
		calls++
		var sym string
		var args []uint64
		switch name := names[n%len(names)]; name {
		case "nvme":
			sym, args = "nvme_read", []uint64{buf, 1, 512}
		case "dummy":
			sym, args = "dummy_ioctl", []uint64{0}
		case "ext4":
			sym, args = "ext4_get_block", []uint64{1, uint64(n % 1024)}
		case "fuse":
			sym, args = "fuse_dispatch", []uint64{1}
		case "xhci":
			sym, args = "xhci_poll", nil
		case "e1000e", "e1000", "ena":
			sym, args = name+"_xmit", []uint64{buf, 256, uint64(n)}
		default:
			return 0, nil
		}
		va, ok := m.K.Symbol(sym)
		if !ok {
			return 0, fmt.Errorf("symbol %q not exported", sym)
		}
		lat, err := c.Call(va, args...)
		if err != nil {
			return 0, fmt.Errorf("driver call during re-randomization: %w", err)
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	m.K.SMR.Flush()
	m.R.LogDmesg()

	fmt.Printf("\n%d driver calls completed under continuous re-randomization (%.1f simulated ms, %d re-randomization steps)\n",
		ops, res.ElapsedSec*1e3, res.RerandSteps)
	fmt.Println("\n$ dmesg")
	for _, line := range m.K.Dmesg() {
		fmt.Println(" ", line)
	}
	for _, name := range names {
		if mod := m.Module(name); mod != nil {
			fmt.Printf("%-8s now at %#x after %d moves (pages remapped: %d, GOT entries slid: %d)\n",
				mod.Name, mod.Base(), mod.Rerandomizations, mod.PagesRemapped, mod.GotEntriesMoved)
		}
	}
	return nil
}
