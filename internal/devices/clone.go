package devices

import "adelie/internal/mm"

// Device clones for machine fork (sim.Machine.Fork). Each CloneFor
// deep-copies the device's state so the fork's I/O diverges independently
// from the template's, DMA-attached to the fork's address space. The
// template must be quiescent (no in-flight MMIO, no open epoch) —
// sim.Machine.Snapshot guarantees it by freezing the machine between
// engine runs.
//
// A clone starts with no DMA translation cache (mm.IOTLB): the
// template's cached entries point straight into frames the fork shares
// copy-on-write, so reusing them would read the template's bytes after
// the fork detached a page. The clone builds its own on its first DMA,
// from the fork's slots; a fork that never does DMA never builds one.

// CloneFor returns a copy of the controller attached to as: media,
// DRAM-cache contents and FIFO order, queue registers and counters all
// carry over, so the clone's future hit/miss latency sequence matches
// what the template's would have been.
func (d *NVMe) CloneFor(as *mm.AddressSpace) *NVMe {
	d.mu.Lock()
	defer d.mu.Unlock()
	nd := &NVMe{
		as:           as,
		sqBase:       d.sqBase,
		cqBase:       d.cqBase,
		sqHead:       d.sqHead,
		lastLatency:  d.lastLatency,
		media:        make(map[uint64][]byte, len(d.media)),
		cachedLBA:    make(map[uint64]bool, len(d.cachedLBA)),
		cacheFIFO:    append([]uint64(nil), d.cacheFIFO...),
		cacheCap:     d.cacheCap,
		pendingSet:   map[uint64]bool{},
		intEnabled:   d.intEnabled,
		Reads:        d.Reads,
		Writes:       d.Writes,
		CacheHits:    d.CacheHits,
		IRQsAsserted: d.IRQsAsserted,
	}
	for lba, blk := range d.media {
		nd.media[lba] = append([]byte(nil), blk...)
	}
	for lba := range d.cachedLBA {
		nd.cachedLBA[lba] = true
	}
	return nd
}

// CloneFor returns a copy of the adapter attached to as. The peer link
// and IRQ wiring are machine-level topology and are NOT copied: the bus
// clone re-runs ConnectVectors with the fork's interrupt controller,
// and sim.Machine.Fork re-Connects the cloned server/load-generator
// pair. Per-queue ring, mask and coalescing state carries over.
func (n *NIC) CloneFor(as *mm.AddressSpace) *NIC {
	n.mu.Lock()
	defer n.mu.Unlock()
	nn := &NIC{
		as:           as,
		Name:         n.Name,
		txRing:       n.txRing,
		ringLen:      n.ringLen,
		TxFrames:     n.TxFrames,
		RxFrames:     n.RxFrames,
		TxBytes:      n.TxBytes,
		RxBytes:      n.RxBytes,
		Dropped:      n.Dropped,
		HostConsumed: n.HostConsumed,
		IRQsAsserted: n.IRQsAsserted,
	}
	nn.queues = make([]*nicQueue, len(n.queues))
	for i, q := range n.queues {
		cq := *q
		cq.irq = nil // rewired by the bus clone
		nn.queues[i] = &cq
	}
	nn.armed.Store(n.armed.Load())
	if n.hostRx != nil {
		nn.hostRx = make([][]byte, len(n.hostRx))
		for i, f := range n.hostRx {
			nn.hostRx[i] = append([]byte(nil), f...)
		}
	}
	return nn
}

// Clone returns a copy of the controller (no DMA state to re-attach).
func (x *XHCI) Clone() *XHCI {
	x.mu.Lock()
	defer x.mu.Unlock()
	return &XHCI{Polls: x.Polls, connected: x.connected}
}
