package bus

import (
	"fmt"

	"adelie/internal/mm"
)

// CloneFor rebuilds this bus for a forked machine over as (the fork's
// address space, whose MMIO regions still point at the template's
// devices). replace maps each attached template device to its clone;
// every window keeps its base and IRQ line, the cloned address space's
// MMIO regions are rebound to the cloned devices, and IRQ devices are
// re-wired to the clone's interrupt controller — so the fork's device
// topology is identical and its interrupt state diverges independently.
func (b *Bus) CloneFor(as *mm.AddressSpace, replace func(Device) Device) (*Bus, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	nb := &Bus{
		as:      as,
		next:    b.next,
		devs:    make([]attached, 0, len(b.devs)),
		byName:  make(map[string]attached, len(b.byName)),
		tickers: make([]Ticker, 0, len(b.tickers)),
		ic:      b.ic.clone(),
	}
	nb.now.Store(b.now.Load())
	for _, a := range b.devs {
		nd := replace(a.dev)
		if nd == nil {
			return nil, fmt.Errorf("bus: clone: no replacement for device %q", a.dev.DevName())
		}
		if err := as.RebindMMIO(a.base, nd); err != nil {
			return nil, fmt.Errorf("bus: clone: %q: %w", nd.DevName(), err)
		}
		// The vector lines are fixed at Attach and never written again.
		na := attached{dev: nd, base: a.base, line: a.line, lines: a.lines}
		switch dd := nd.(type) {
		case MSIXDevice:
			if len(na.lines) > 0 {
				lines := make([]*Line, len(na.lines))
				for v, n := range na.lines {
					lines[v] = &Line{n: n, ic: nb.ic}
				}
				dd.ConnectVectors(lines, nb.Now)
			}
		case IRQDevice:
			if a.line >= 0 {
				dd.ConnectIRQ(&Line{n: a.line, ic: nb.ic}, nb.Now)
			}
		}
		nb.devs = append(nb.devs, na)
		nb.byName[nd.DevName()] = na
		if t, ok := nd.(Ticker); ok {
			nb.tickers = append(nb.tickers, t)
		}
	}
	return nb, nil
}

// clone deep-copies the interrupt controller: line count, pending set,
// routes and per-line counters all carry over so a forked
// machine's coalescing figures continue from the snapshot point.
func (ic *IntController) clone() *IntController {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := &IntController{
		lines:     ic.lines,
		pending:   make(map[int]uint64, len(ic.pending)),
		delivered: append([]uint64(nil), ic.delivered...),
		latSum:    append([]uint64(nil), ic.latSum...),
		routes:    append([]int(nil), ic.routes...),
	}
	for line, since := range ic.pending {
		n.pending[line] = since
	}
	n.npending.Store(int32(len(n.pending)))
	return n
}
