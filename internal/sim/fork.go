package sim

import (
	"errors"
	"fmt"

	"adelie/internal/bus"
	"adelie/internal/devices"
	"adelie/internal/rerand"
)

// Snapshot freezes the machine as a fork template. A frozen machine
// refuses Run and Call — its memory image must stay immutable so forks
// share it copy-on-write — and Fork may then be called any number of
// times, concurrently. Snapshot requires quiescence: no engine run in
// progress, no SMR critical section live, and no retired address range
// still awaiting reclamation (its free closure captures the template's
// address space). Take the snapshot right after boot + driver load,
// before any measurement.
func (m *Machine) Snapshot() error {
	if m.released {
		return errReleased
	}
	if m.frozen {
		return nil
	}
	// Validate forkability now (reclaimer scheme + quiescence) so the
	// error surfaces at snapshot time, not at the first fork. The probe
	// fork is released immediately so frame refcounts are unchanged.
	nk, err := m.K.Fork()
	if err != nil {
		return fmt.Errorf("sim: snapshot: %w", err)
	}
	nk.AS.Phys().Release()
	m.frozen = true
	return nil
}

// Frozen reports whether the machine is a snapshot template.
func (m *Machine) Frozen() bool { return m.frozen }

// Fork returns a new machine sharing the template's physical frames
// copy-on-write. The clone is a complete, independent testbed — kernel,
// address space, devices, bus, interrupt controller, re-randomizer — in
// the exact state the template froze in: same module bases, same RNG
// stream position, same device caches, same cycle counters. By the
// fork-determinism contract it therefore produces bit-identical
// experiment results to a machine that booted cold into that state.
// Forking is cheap and safe to call concurrently. The fork shares the
// template's frame slots, kernel maps and native table, and clones
// state on first use: a chunk of frame slots when the fork first
// translates or writes a frame in it, a page when it first writes it, a
// vCPU when a run first touches it, a module when Module, Modules or
// the re-randomizer first asks for it. Only the bus and its devices,
// which the engine ticks every round, are cloned here.
func (m *Machine) Fork() (*Machine, error) {
	if m.released {
		return nil, errReleased
	}
	if !m.frozen {
		return nil, fmt.Errorf("sim: fork: machine is not a snapshot (call Snapshot first)")
	}
	nk, err := m.K.Fork()
	if err != nil {
		return nil, fmt.Errorf("sim: fork: %w", err)
	}
	nr := rerand.Fork(nk, m.R)
	nvme := m.NVMe.CloneFor(nk.AS)
	nic := m.NIC.CloneFor(nk.AS)
	peer := m.Peer.CloneFor(nk.AS)
	xhci := m.XHCI.Clone()
	nb, err := m.Bus.CloneFor(nk.AS, func(d bus.Device) bus.Device {
		switch d {
		case m.NVMe:
			return nvme
		case m.NIC:
			return nic
		case m.Peer:
			return peer
		case m.XHCI:
			return xhci
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: fork: %w", err)
	}
	devices.Connect(nic, peer)
	// The IRQ router is machine wiring, not kernel state: kernel.Fork
	// leaves it nil, so point the clone's guest affinity API at its own
	// interrupt controller (which carried the template's routes over).
	nk.SetIRQRouter(nb.IC().SetRoute)
	return &Machine{
		K: nk, R: nr, Bus: nb,
		NVMe: nvme, NIC: nic, Peer: peer, XHCI: xhci,
	}, nil
}

// Release drops the machine's copy-on-write references on its physical
// frames (fork teardown) and returns the number of frame records whose
// last reference died here. A frozen template may be released while its
// forks run: they hold their own references.
//
// Dead records are recycled: the next machine to allocate or detach a
// frame, in any goroutine, may take one and write it. A record dies
// only when its last reference does, so a live machine never holds a
// dead one; only the released machine's TLBs and decoded code still
// point at its records. Run, Call, Fork and Snapshot therefore fail on
// a released machine instead of writing into another machine's frames,
// and a second Release panics.
func (m *Machine) Release() int64 {
	m.released = true
	return m.K.AS.Phys().Release()
}

var errReleased = errors.New("sim: machine was released")
