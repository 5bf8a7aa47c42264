package kernel

import (
	"maps"

	"adelie/internal/cpu"
)

// Interrupt support mirrors the workqueue's §3.4 treatment of deferred
// execution: a driver registers an ISR whose address may live inside its
// movable part (request_irq with &handler, like queue_work), the
// re-randomizer slides registered vectors when the module moves, and
// every dispatch runs inside its own mr_start/mr_finish bracket so a
// concurrent re-randomization cannot unmap the handler mid-ISR.
//
// Each vector also carries an affinity — the vCPU its ISR runs on. The
// kernel is the source of truth for affinity (like the irq descriptor's
// effective mask); an installed IRQ router hook mirrors affinity changes
// into the bus's vector table so the interrupt controller groups
// delivery per target lane.
//
// Delivery timing is the engine's job: the bus's interrupt controller
// collects lines raised during a round, and the engine calls DispatchIRQ
// only at barrier-synchronized clock boundaries with all vCPUs
// quiescent — the determinism contract documented in README.md.

// isrEntry is one interrupt vector: the handler address plus the vCPU
// the handler is affine to.
type isrEntry struct {
	handler uint64
	vcpu    int
}

// SetIRQRouter installs the hook mirroring ISR affinity into the
// machine's interrupt-routing fabric (the bus vector table). The hook is
// machine wiring, not kernel state: Fork does not carry it over — the
// forked machine re-installs a hook pointing at its own controller.
func (k *Kernel) SetIRQRouter(route func(line, vcpu int)) {
	k.mu.Lock()
	k.irqRouter = route
	k.mu.Unlock()
}

// RegisterISR installs handler as the interrupt service routine for a
// line, affine to vcpu. Re-registering a line replaces its handler and
// affinity (drivers re-init).
func (k *Kernel) RegisterISR(line int, handler uint64, vcpu int) {
	k.mu.Lock()
	if vcpu < 0 {
		vcpu = 0
	}
	k.isrs.own(maps.Clone)[line] = isrEntry{handler: handler, vcpu: vcpu}
	route := k.irqRouter
	k.mu.Unlock()
	if route != nil {
		route(line, vcpu)
	}
}

// SetISRAffinity re-targets a registered line's ISR to a vCPU and
// mirrors the change through the router hook. Unregistered lines are
// routed only (the driver may set affinity before request_irq).
func (k *Kernel) SetISRAffinity(line, vcpu int) {
	if vcpu < 0 {
		vcpu = 0
	}
	k.mu.Lock()
	if e, ok := k.isrs.v[line]; ok {
		e.vcpu = vcpu
		k.isrs.own(maps.Clone)[line] = e
	}
	route := k.irqRouter
	k.mu.Unlock()
	if route != nil {
		route(line, vcpu)
	}
}

// DispatchIRQ runs the ISR registered for line on c, bracketed with
// mr_start/mr_finish like a workqueue handler. The engine picks c from
// the line's routed vCPU; the kernel only resolves the vector. It
// returns false (and no error) for a spurious interrupt — a line with
// no registered handler.
func (k *Kernel) DispatchIRQ(c *cpu.CPU, line int) (bool, error) {
	k.mu.Lock()
	e, ok := k.isrs.v[line]
	k.mu.Unlock()
	if !ok {
		return false, nil
	}
	k.SMR.Enter(c.ID)
	defer k.SMR.Leave(c.ID)
	_, err := c.Call(e.handler, uint64(line))
	return true, err
}

// slideISRs retargets registered handlers that point into the movable
// range being moved — the interrupt-vector counterpart of
// slideWorkqueue. Affinity is untouched: re-randomization moves code,
// not routing. Called by Module.Rerandomize under k's module lock.
func (k *Kernel) slideISRs(oldBase, size, delta uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for line, e := range k.isrs.v {
		if e.handler >= oldBase && e.handler < oldBase+size {
			e.handler += delta
			k.isrs.own(maps.Clone)[line] = e
		}
	}
}
