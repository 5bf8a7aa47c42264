// Package bus is the device interconnect of the simulated testbed: it
// allocates MMIO windows, dispatches device registration, and owns the
// deterministic interrupt controller.
//
// Before the bus, sim.New hand-registered each device at a hardcoded
// MMIO base and the engine received epoch-deterministic devices as a
// separate variadic list. The bus unifies both: a device implements
// Device (name + window size), optionally IRQDevice (an interrupt line),
// optionally EpochDevice (round-granular state semantics, discovered by
// interface assertion), and optionally Ticker (a coalescing timer
// stepped on the virtual clock). Attach order is the only wiring input,
// so a machine's device map — bases, IRQ lines, epoch set — is a pure
// function of the attach sequence and stays bit-reproducible.
//
// Interrupts and determinism. Devices raise their lines at any point
// during a round (a doorbell write on one vCPU can make a peer NIC
// assert), but lines are only *delivered* — ISRs only run — at the
// engine's barrier-synchronized clock boundaries, with every vCPU
// quiescent, in (routed vCPU, line) order. Raising is a commutative
// set-union operation (the set of lines pending at the barrier does not
// depend on the order the round's lanes ran in), so delivery order, ISR
// side effects and every RunResult derived from them are deterministic.
//
// Quiet barriers. A barrier's device work is proportional to the work
// the devices hold, not to the number of rounds: every Ticker reports
// through Armed whether a Tick could do anything, and the controller
// keeps a lock-free count of pending lines. Quiet is their conjunction;
// on a quiet barrier the engine only publishes the clock (SetNow) and
// takes no lock. Epoch devices follow the same rule for their own state
// (see EpochDevice).
package bus

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"adelie/internal/mm"
	"adelie/internal/obs"
)

// Device is a bus-attachable device: an MMIO register block with a
// stable name. Optional capabilities are discovered by interface
// assertion at Attach time: IRQDevice, EpochDevice, Ticker.
type Device interface {
	mm.MMIOHandler
	// DevName is the stable lookup name ("nvme", "nic0", …); Attach
	// rejects duplicates.
	DevName() string
	// DevPages is the MMIO window size in pages.
	DevPages() int
}

// IRQDevice is a Device with an interrupt line. The bus assigns line
// numbers in attach order and hands the device its line plus a reader
// for the virtual clock (cycles), which the device uses to timestamp
// pending work for coalescing decisions.
type IRQDevice interface {
	Device
	ConnectIRQ(line *Line, now func() uint64)
}

// MSIXDevice is a Device with an MSI-X-style vector table: it raises
// NumVectors independent lines (one per queue), each individually
// routable to a target vCPU. The bus allocates the vectors as
// consecutive controller lines in attach order, so a device's vector v
// is always line base+v and the map stays a pure function of the attach
// sequence. Checked before IRQDevice at Attach time, so a device
// implementing both connects through its vector table.
type MSIXDevice interface {
	Device
	// NumVectors is the vector-table size; must be >= 1.
	NumVectors() int
	// ConnectVectors hands the device its lines, index = vector number.
	ConnectVectors(lines []*Line, now func() uint64)
}

// EpochDevice is a device with round-granular (epoch) state semantics:
// between BeginEpoch and EndEpoch, reads of modeled device state (e.g.
// the NVMe controller's DRAM-cache contents) observe the epoch-start
// snapshot while updates are buffered, and EndEpoch applies the buffer
// in deterministic order. This keeps latencies independent of the order
// lanes run in within a round: CPUs issuing in the same round do not see
// each other's updates, which is part of the simulated SMP model.
//
// The engine brackets every round with these calls, so they must be
// cheap when the round buffered nothing: flipping the epoch state and
// returning, with the device lock taken only to apply a buffer.
type EpochDevice interface {
	BeginEpoch()
	EndEpoch()
}

// Ticker is a device with a clocked timer (interrupt coalescing delay).
// Tick runs at a clock boundary with all vCPUs quiescent; force is set
// on the final tick of a measurement so pending work flushes.
//
// Armed reports whether the device holds work a Tick could act on
// (e.g. coalesced frames not yet signalled). It must be cheap and
// lock-free: the bus polls it at every barrier and ticks only armed
// devices, and a barrier at which no ticker is armed and no line is
// pending touches no device at all (see Bus.Quiet). A device stays
// armed for as long as its work is held, even while it cannot act on
// it (a masked queue), so it is ticked at every barrier until it can.
type Ticker interface {
	Armed() bool
	Tick(nowCycles uint64, force bool)
}

// windowStride is the minimum MMIO window spacing (64 KB), matching the
// per-device bases the testbed used before the bus existed.
const windowStride = 16 * mm.PageSize

type attached struct {
	dev   Device
	base  uint64
	line  int   // first IRQ line (vector 0), -1 if none
	lines []int // all vector lines, in vector order; nil if none
}

// Bus allocates MMIO windows, owns the interrupt controller, and keeps
// the device registry.
type Bus struct {
	as   *mm.AddressSpace
	next uint64

	mu     sync.Mutex
	devs   []attached
	byName map[string]attached

	// tickers lists the devices with coalescing timers, in attach order.
	// Attach and CloneFor fix it before any run, so the barrier reads it
	// without mu.
	tickers []Ticker

	ic  *IntController
	now atomic.Uint64 // virtual clock in cycles, set at engine barriers
}

// New returns an empty bus allocating MMIO windows upward from base.
func New(as *mm.AddressSpace, base uint64) *Bus {
	return &Bus{as: as, next: base, byName: map[string]attached{}, ic: NewIntController()}
}

// Attach registers d's MMIO window at the next free base and wires its
// optional IRQ line. It returns the allocated window base.
func (b *Bus) Attach(d Device) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	name := d.DevName()
	if _, dup := b.byName[name]; dup {
		return 0, fmt.Errorf("bus: duplicate device name %q", name)
	}
	pages := d.DevPages()
	if pages <= 0 {
		pages = 1
	}
	base := b.next
	if err := b.as.RegisterMMIO(base, pages, d); err != nil {
		return 0, fmt.Errorf("bus: attaching %q: %w", name, err)
	}
	stride := uint64(pages) * mm.PageSize
	if stride < windowStride {
		stride = windowStride
	}
	b.next += stride

	a := attached{dev: d, base: base, line: -1}
	switch dd := d.(type) {
	case MSIXDevice:
		nv := dd.NumVectors()
		if nv < 1 {
			nv = 1
		}
		lines := make([]*Line, nv)
		for v := range lines {
			n := b.ic.addLine()
			lines[v] = &Line{n: n, ic: b.ic}
			a.lines = append(a.lines, n)
		}
		a.line = a.lines[0]
		dd.ConnectVectors(lines, b.Now)
	case IRQDevice:
		a.line = b.ic.addLine()
		a.lines = []int{a.line}
		dd.ConnectIRQ(&Line{n: a.line, ic: b.ic}, b.Now)
	}
	b.devs = append(b.devs, a)
	b.byName[name] = a
	if t, ok := d.(Ticker); ok {
		b.tickers = append(b.tickers, t)
	}
	return base, nil
}

// Base returns the MMIO window base of the named device.
func (b *Bus) Base(name string) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.byName[name]
	if !ok {
		return 0, false
	}
	return a.base, true
}

// IRQLine returns the interrupt line of the named device (-1 if the
// device has no line or is not attached). For an MSI-X device this is
// vector 0's line.
func (b *Bus) IRQLine(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if a, ok := b.byName[name]; ok {
		return a.line
	}
	return -1
}

// IRQLines returns every interrupt line of the named device in vector
// order (nil if the device has no lines or is not attached).
func (b *Bus) IRQLines(name string) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if a, ok := b.byName[name]; ok {
		return append([]int(nil), a.lines...)
	}
	return nil
}

// Devices returns the attached devices in attach order.
func (b *Bus) Devices() []Device {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Device, len(b.devs))
	for i, a := range b.devs {
		out[i] = a.dev
	}
	return out
}

// EpochDevices returns, in attach order, the attached devices that
// implement EpochDevice — the interface-assertion replacement for the
// engine's old EpochDevice variadic.
func (b *Bus) EpochDevices() []EpochDevice {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []EpochDevice
	for _, a := range b.devs {
		if e, ok := a.dev.(EpochDevice); ok {
			out = append(out, e)
		}
	}
	return out
}

// IC returns the interrupt controller.
func (b *Bus) IC() *IntController { return b.ic }

// SetNow publishes the virtual clock (cycles). The engine calls it at
// barriers only, so every Deliver/Raise within a round observes the
// round-start time — a deterministic timestamp.
func (b *Bus) SetNow(cycles uint64) { b.now.Store(cycles) }

// Now reads the virtual clock as of the last barrier.
func (b *Bus) Now() uint64 { return b.now.Load() }

// Tick steps every armed Ticker device at a clock boundary
// (coalescing-delay checks). force flushes pending work at end of
// measurement. The ticker set is fixed before any run, so Tick takes no
// bus lock and allocates nothing, and an unarmed device is not called.
func (b *Bus) Tick(force bool) {
	now := b.Now()
	for _, t := range b.tickers {
		if t.Armed() {
			t.Tick(now, force)
		}
	}
}

// Quiet reports whether a barrier has no device work: no ticker is armed
// and no line is pending. It takes no lock, so a quiet barrier costs a
// few atomic loads. The engine checks it before every Tick/TakePending
// pass of its interrupt window.
func (b *Bus) Quiet() bool {
	for _, t := range b.tickers {
		if t.Armed() {
			return false
		}
	}
	return !b.ic.HasPending()
}

// Line is one device's interrupt line.
type Line struct {
	n  int
	ic *IntController
}

// Num returns the controller line number.
func (l *Line) Num() int { return l.n }

// Assert raises the line. pendingSince is the virtual time (cycles) the
// oldest work covered by this interrupt has been waiting — the
// controller keeps the earliest value per line and reports delivery
// latency against it.
func (l *Line) Assert(pendingSince uint64) { l.ic.raise(l.n, pendingSince) }

// PendingIRQ is one raised-but-undelivered line.
type PendingIRQ struct {
	Line  int
	Since uint64 // earliest pendingSince across the raises being coalesced
	VCPU  int    // route target at drain time (vector-table entry)
}

// IntController collects lines raised during a round and hands them to
// the engine at the barrier, in ascending line order. Each line carries
// a route — the vector-table entry naming its target vCPU (default 0) —
// which TakePending stamps onto the drained set so the engine can group
// delivery per lane. It also keeps the per-line delivery counts and
// latency sums the coalescing figures read.
type IntController struct {
	mu      sync.Mutex
	lines   int
	pending map[int]uint64 // line → earliest pendingSince
	routes  []int          // line → target vCPU (the vector table)

	// npending mirrors len(pending), written under mu, so a barrier can
	// see an empty set without taking mu (HasPending, TakePending).
	npending atomic.Int32

	delivered []uint64 // per line
	latSum    []uint64 // Σ (deliveredAt - pendingSince), cycles
}

// NewIntController returns an empty controller.
func NewIntController() *IntController {
	return &IntController{pending: map[int]uint64{}}
}

func (ic *IntController) addLine() int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := ic.lines
	ic.lines++
	ic.delivered = append(ic.delivered, 0)
	ic.latSum = append(ic.latSum, 0)
	ic.routes = append(ic.routes, 0)
	return n
}

// SetRoute points a line's vector-table entry at a target vCPU.
// Unknown lines and negative targets are ignored: the route table only
// covers allocated vectors, and the engine clamps out-of-range targets
// to the booted vCPU count at delivery time.
func (ic *IntController) SetRoute(line, vcpu int) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if line < 0 || line >= len(ic.routes) || vcpu < 0 {
		return
	}
	ic.routes[line] = vcpu
}

// Process-wide interrupt counters, resolved once: raise runs on the hot
// device path (multi-queue NICs raise from several lanes per round, and
// several machines may run at once), so the per-event cost must stay one
// atomic add — not a registry mutex + map lookup.
var (
	mIRQsRaised    = obs.Default.Counter("adelie_bus_irqs_raised_total")
	mIRQsDelivered = obs.Default.Counter("adelie_bus_irqs_delivered_total")
	mIRQsSpurious  = obs.Default.Counter("adelie_bus_irqs_spurious_total")
)

// raise marks a line pending. Repeated raises before delivery coalesce,
// keeping the earliest pendingSince: the merged interrupt covers the
// oldest waiting work. Raising is commutative, which is what makes the
// barrier-observed pending set independent of intra-round scheduling.
func (ic *IntController) raise(line int, pendingSince uint64) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	mIRQsRaised.Inc()
	if since, ok := ic.pending[line]; !ok || pendingSince < since {
		ic.pending[line] = pendingSince
		ic.npending.Store(int32(len(ic.pending)))
	}
}

// HasPending reports whether any line is raised and undelivered. It
// takes no lock.
func (ic *IntController) HasPending() bool { return ic.npending.Load() != 0 }

// TakePending atomically drains the pending set, appending it to dst
// sorted by line number — the deterministic delivery order — and
// returns the extended slice. The engine passes its window buffer back
// in each time, so draining allocates nothing once the buffer has grown,
// and an empty set returns without taking the lock.
func (ic *IntController) TakePending(dst []PendingIRQ) []PendingIRQ {
	if !ic.HasPending() {
		return dst
	}
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := len(dst)
	for line, since := range ic.pending {
		dst = append(dst, PendingIRQ{Line: line, Since: since, VCPU: ic.routes[line]})
	}
	clear(ic.pending)
	ic.npending.Store(0)
	slices.SortFunc(dst[n:], func(a, b PendingIRQ) int { return cmp.Compare(a.Line, b.Line) })
	return dst
}

// NoteDelivered records one dispatch: the per-line delivery count and
// the latency from the oldest covered work to delivery, or a spurious
// interrupt when no ISR handled it.
func (ic *IntController) NoteDelivered(p PendingIRQ, atCycle uint64, handled bool) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if handled {
		ic.delivered[p.Line]++
		if atCycle > p.Since {
			ic.latSum[p.Line] += atCycle - p.Since
		}
		mIRQsDelivered.Inc()
	} else {
		mIRQsSpurious.Inc()
	}
}

// AvgLatencyCycles returns the mean cycles from oldest-pending-work to
// ISR dispatch on a line (0 if the line never delivered).
func (ic *IntController) AvgLatencyCycles(line int) float64 {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if ic.delivered[line] == 0 {
		return 0
	}
	return float64(ic.latSum[line]) / float64(ic.delivered[line])
}
