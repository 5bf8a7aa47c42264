package devices

import (
	"sync"
	"sync/atomic"

	"adelie/internal/bus"
	"adelie/internal/mm"
	"adelie/internal/obs"
)

// NIC is an E1000E-flavoured ring-buffer network adapter with up to
// MaxNICQueues receive queues. The driver publishes descriptor rings
// (VA + length + head/tail indexes), rings a doorbell to transmit, and
// reads received frames out of the RX rings. Frames transmitted on one
// NIC appear on its peer's RX side (or loop back), steered to a queue
// by a deterministic RSS hash over the frame bytes, with a 1 GbE wire
// bandwidth that the simulator accounts as the throughput ceiling
// Fig. 7/8 observe (~110 MB/s).
//
// The NIC is a bus.MSIXDevice: the bus wires one vector (line) per
// queue, RX delivery into a queue's ring asserts that queue's line
// under the queue's coalescing policy (SetCoalescing), and the driver's
// NAPI-style ISR masks the queue via its IntCtl register, drains the
// ring, and unmasks. Queue 0 doubles as the legacy single-queue device:
// its ring, head and mask registers alias the original register map, so
// a single-queue NIC is bit-identical to the pre-multi-queue one.
// Frames delivered while no line is wired (or to the host-driven
// load-generator side) never interrupt.
type NIC struct {
	mu sync.Mutex
	as *mm.AddressSpace
	io *mm.IOTLB // DMA translation cache over as, made on first DMA (see iotlb)

	// Name distinguishes multiple adapters on one bus ("nic0"/"nic1",
	// the server/load-generator pair of Table 1).
	Name string

	txRing  uint64 // TX descriptor ring base VA
	ringLen uint64 // descriptors per ring (TX and every RX ring)

	queues []*nicQueue // RX queues; len >= 1, queue 0 = legacy registers
	clock  func() uint64

	// armed counts the queues holding coalesced frames not yet asserted
	// (pendingIRQ > 0), written under mu and read without it by Armed,
	// so a barrier with nothing coalesced never takes mu.
	armed atomic.Int32

	peer *NIC // nil = loopback

	// hostRx captures frames when no RX ring is programmed — the
	// load-generator side of the wire, consumed by the host harness.
	// It is bounded by hostRxCap: the modeled load generator keeps up
	// with the wire, so overflow frames count as consumed (HostConsumed)
	// instead of accumulating, and long runs cannot wedge on a full
	// host ring.
	hostRx [][]byte

	TxFrames, RxFrames, TxBytes, RxBytes uint64
	Dropped                              uint64
	HostConsumed                         uint64 // load-generator frames consumed past the cap
	IRQsAsserted                         uint64
}

// nicQueue is one RX queue: a descriptor ring plus its MSI-X vector and
// coalescing state. The bus assigns irq; the guest masks/unmasks
// through the queue's IntCtl register. pendingIRQ counts frames
// delivered since the last assert; firstPending timestamps the oldest
// of them (virtual cycles) for the coalescing delay and the
// controller's latency accounting.
type nicQueue struct {
	rxRing uint64 // descriptor ring base VA; 0 = not programmed
	rxTail uint64 // next RX slot the device fills

	irq            *bus.Line
	intMasked      bool
	pendingIRQ     uint64
	firstPending   uint64
	coalesceFrames uint64 // assert once this many frames are pending
	coalesceDelay  uint64 // or once the oldest has waited this many cycles

	RxFrames uint64 // frames steered into this queue's ring
}

// MaxNICQueues bounds the RSS queue count (the vector-table size).
const MaxNICQueues = 8

// WireBytesPerSec is the 1 GbE line rate (≈110 MB/s of goodput, the
// ceiling visible in the paper's Fig. 7/8 network numbers).
const WireBytesPerSec = 110e6

// NIC MMIO register map. The scalar registers alias queue 0, keeping
// single-queue drivers unchanged; per-queue register blocks start at
// NICRegQueueBase, one NICRegQueueStride-sized block per queue (queue
// 0's block aliases the scalar registers too).
const (
	NICRegTxRing     = 0x00 // TX descriptor ring base VA
	NICRegRxRing     = 0x08 // queue 0 RX descriptor ring base VA
	NICRegRingLen    = 0x10 // descriptors per ring
	NICRegTxDoorbell = 0x18 // write: TX slot to send
	NICRegRxHead     = 0x20 // read: queue 0 next filled RX slot count
	NICRegIntCtl     = 0x28 // write 1: mask queue 0's interrupt (IMC); write 0: unmask (IMS); read: mask state

	NICRegQueueBase   = 0x40 // per-queue register blocks start here
	NICRegQueueStride = 0x20 // bytes per queue block
	NICRegQRxRing     = 0x00 // block + 0x00: RX descriptor ring base VA
	NICRegQRxHead     = 0x08 // block + 0x08: next filled RX slot count (read)
	NICRegQIntCtl     = 0x10 // block + 0x10: mask/unmask this queue's vector
)

// Descriptor layout (2 words): buffer VA, byte length. A zero length
// marks a free RX descriptor.

// hostRxCap bounds the host-side capture queue of a ringless
// (load-generator) adapter.
const hostRxCap = 1024

// NewNIC creates a single-queue adapter DMA-attached to as.
func NewNIC(as *mm.AddressSpace) *NIC {
	return &NIC{as: as, Name: "nic", queues: []*nicQueue{{coalesceFrames: 1}}}
}

// DevName implements bus.Device.
func (n *NIC) DevName() string { return n.Name }

// iotlb returns the adapter's DMA translation cache, creating it on the
// first DMA so an adapter (or fork) that never moves a frame pays
// nothing. Caller holds n.mu.
func (n *NIC) iotlb() *mm.IOTLB {
	if n.io == nil {
		n.io = mm.NewIOTLB(n.as)
	}
	return n.io
}

// DevPages implements bus.Device.
func (n *NIC) DevPages() int { return 1 }

// SetQueues sizes the RSS queue set (clamped to [1, MaxNICQueues]).
// Must be called before the adapter is attached to a bus: the queue
// count is the MSI-X vector-table size the bus allocates lines for.
func (n *NIC) SetQueues(count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if count < 1 {
		count = 1
	}
	if count > MaxNICQueues {
		count = MaxNICQueues
	}
	n.queues = make([]*nicQueue, count)
	for i := range n.queues {
		n.queues[i] = &nicQueue{coalesceFrames: 1}
	}
	n.armed.Store(0)
}

// NumQueues returns the RSS queue count.
func (n *NIC) NumQueues() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queues)
}

// NumVectors implements bus.MSIXDevice: one vector per RX queue.
func (n *NIC) NumVectors() int { return n.NumQueues() }

// ConnectVectors implements bus.MSIXDevice: the bus hands the adapter
// one line per queue plus a reader for the barrier-published virtual
// clock.
func (n *NIC) ConnectVectors(lines []*bus.Line, now func() uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = now
	for i, q := range n.queues {
		if i < len(lines) {
			q.irq = lines[i]
		}
	}
}

// IRQLine returns the bus line number wired to queue 0 (-1 if none).
func (n *NIC) IRQLine() int { return n.QueueIRQLine(0) }

// QueueIRQLine returns the bus line number wired to a queue's vector
// (-1 if none).
func (n *NIC) QueueIRQLine(q int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q < 0 || q >= len(n.queues) || n.queues[q].irq == nil {
		return -1
	}
	return n.queues[q].irq.Num()
}

// SetCoalescing configures interrupt moderation on every queue: a
// queue's line asserts once maxFrames frames are pending on it, or —
// checked at clock boundaries — once its oldest pending frame has
// waited delayCycles. maxFrames <= 1 means assert per frame;
// delayCycles == 0 makes every clock boundary flush whatever is
// pending.
func (n *NIC) SetCoalescing(maxFrames, delayCycles uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if maxFrames == 0 {
		maxFrames = 1
	}
	for _, q := range n.queues {
		q.coalesceFrames, q.coalesceDelay = maxFrames, delayCycles
	}
}

// Armed implements bus.Ticker: whether any queue holds coalesced frames
// not yet asserted. A masked queue with frames stays armed, so it is
// ticked at every barrier as long as it holds them.
func (n *NIC) Armed() bool { return n.armed.Load() != 0 }

// Tick implements bus.Ticker: at a clock boundary, assert any queue
// whose oldest pending frame has exceeded its coalescing delay (or
// every pending queue unconditionally on the final force tick of a
// measurement), in queue order. With no queue armed it returns without
// taking the lock.
func (n *NIC) Tick(nowCycles uint64, force bool) {
	if !n.Armed() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, q := range n.queues {
		if q.pendingIRQ == 0 {
			continue
		}
		if force || nowCycles-q.firstPending >= q.coalesceDelay {
			n.assertIRQLocked(q)
		}
	}
}

// noteRxLocked records one frame landing in a queue's ring and applies
// that queue's frame-count coalescing threshold. Caller holds n.mu.
func (n *NIC) noteRxLocked(q *nicQueue) {
	if q.irq == nil {
		return
	}
	if q.pendingIRQ == 0 {
		if n.clock != nil {
			q.firstPending = n.clock()
		} else {
			q.firstPending = 0
		}
		n.armed.Add(1)
	}
	q.pendingIRQ++
	if !q.intMasked && q.pendingIRQ >= q.coalesceFrames {
		n.assertIRQLocked(q)
	}
}

// assertIRQLocked raises a queue's line, folding all its pending frames
// into one interrupt. Caller holds n.mu and has checked pendingIRQ > 0.
func (n *NIC) assertIRQLocked(q *nicQueue) {
	if q.irq == nil || q.intMasked {
		return
	}
	q.irq.Assert(q.firstPending)
	n.IRQsAsserted++
	q.pendingIRQ = 0
	n.armed.Add(-1)
}

// Connect wires two NICs back-to-back (server/load-generator setup of
// Table 1). A NIC without a peer loops frames back to itself.
func Connect(a, b *NIC) {
	a.mu.Lock()
	a.peer = b
	a.mu.Unlock()
	b.mu.Lock()
	b.peer = a
	b.mu.Unlock()
}

// queueReg resolves an offset inside the per-queue register blocks.
// Caller holds n.mu.
func (n *NIC) queueRegLocked(off uint64) (*nicQueue, uint64, bool) {
	if off < NICRegQueueBase {
		return nil, 0, false
	}
	qi := int((off - NICRegQueueBase) / NICRegQueueStride)
	if qi >= len(n.queues) {
		return nil, 0, false
	}
	return n.queues[qi], (off - NICRegQueueBase) % NICRegQueueStride, true
}

// MMIORead implements mm.MMIOHandler.
func (n *NIC) MMIORead(off uint64) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch off {
	case NICRegTxRing:
		return n.txRing
	case NICRegRxRing:
		return n.queues[0].rxRing
	case NICRegRingLen:
		return n.ringLen
	case NICRegRxHead:
		return n.queues[0].rxTail
	case NICRegIntCtl:
		if n.queues[0].intMasked {
			return 1
		}
		return 0
	}
	if q, reg, ok := n.queueRegLocked(off); ok {
		switch reg {
		case NICRegQRxRing:
			return q.rxRing
		case NICRegQRxHead:
			return q.rxTail
		case NICRegQIntCtl:
			if q.intMasked {
				return 1
			}
			return 0
		}
	}
	return 0
}

// MMIOWrite implements mm.MMIOHandler.
func (n *NIC) MMIOWrite(off uint64, val uint64) {
	n.mu.Lock()
	switch off {
	case NICRegTxRing:
		n.txRing = val
	case NICRegRxRing:
		n.queues[0].rxRing = val
	case NICRegRingLen:
		n.ringLen = val
	case NICRegTxDoorbell:
		n.mu.Unlock()
		n.transmit(val)
		return
	case NICRegIntCtl:
		n.intCtlLocked(n.queues[0], val)
	default:
		if q, reg, ok := n.queueRegLocked(off); ok {
			switch reg {
			case NICRegQRxRing:
				q.rxRing = val
			case NICRegQIntCtl:
				n.intCtlLocked(q, val)
			}
		}
	}
	n.mu.Unlock()
}

// intCtlLocked applies a mask/unmask write to a queue. Caller holds
// n.mu.
func (n *NIC) intCtlLocked(q *nicQueue, val uint64) {
	if val != 0 {
		q.intMasked = true
		return
	}
	// NAPI re-enable: if frames arrived while the vector was masked,
	// re-assert immediately so the driver is told about work it has not
	// been signalled for.
	q.intMasked = false
	if q.pendingIRQ > 0 {
		n.assertIRQLocked(q)
	}
}

// transmit sends the frame described by TX slot and delivers it to the
// peer (or loops it back).
func (n *NIC) transmit(slot uint64) {
	n.mu.Lock()
	if n.txRing == 0 || n.ringLen == 0 {
		n.mu.Unlock()
		return
	}
	io := n.iotlb()
	desc := n.txRing + (slot%n.ringLen)*16
	buf, err := io.Read64Force(desc)
	if err != nil {
		// A mis-programmed ring base must not fall through to VA 0.
		n.Dropped++
		n.mu.Unlock()
		return
	}
	length, err := io.Read64Force(desc + 8)
	if err != nil {
		n.Dropped++
		n.mu.Unlock()
		return
	}
	if length == 0 || length > 1<<16 {
		n.Dropped++
		n.mu.Unlock()
		return
	}
	frame, err := io.ReadBytes(buf, int(length))
	if err != nil {
		n.Dropped++
		n.mu.Unlock()
		return
	}
	n.TxFrames++
	n.TxBytes += length
	dst := n.peer
	if dst == nil {
		dst = n
	}
	n.mu.Unlock()
	dst.Deliver(frame)
}

// rssHash is the deterministic receive-side-scaling hash: FNV-1a over
// the frame's first 32 bytes (the header region real RSS hashes). The
// same frame bytes always land on the same queue, so steering is a pure
// function of traffic content and queue count.
func rssHash(frame []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := len(frame)
	if n > 32 {
		n = 32
	}
	for _, b := range frame[:n] {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Deliver places a frame into the next free RX descriptor of the queue
// its RSS hash selects — what the wire (or a host-side load generator)
// does.
func (n *NIC) Deliver(frame []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.queues[0]
	if len(n.queues) > 1 {
		q = n.queues[rssHash(frame)%uint64(len(n.queues))]
	}
	if q.rxRing == 0 || n.ringLen == 0 {
		// No driver-owned ring: this adapter is host-driven (the load
		// generator of Table 1); queue the frame for the harness. The
		// modeled generator keeps pace with the wire, so past the cap
		// the oldest frames count as consumed rather than accumulating.
		// Trimming waits until 2×cap so the compaction cost amortizes to
		// O(1) per frame instead of an O(cap) memmove per delivery.
		n.hostRx = append(n.hostRx, frame)
		if len(n.hostRx) >= 2*hostRxCap {
			over := len(n.hostRx) - hostRxCap
			n.hostRx = append(n.hostRx[:0], n.hostRx[over:]...)
			n.HostConsumed += uint64(over)
		}
		n.RxFrames++
		n.RxBytes += uint64(len(frame))
		return
	}
	io := n.iotlb()
	desc := q.rxRing + (q.rxTail%n.ringLen)*16
	buf, err := io.Read64Force(desc)
	if err != nil || buf == 0 {
		n.Dropped++
		return
	}
	// Ring overrun check: a zero length word marks a free RX descriptor
	// (the documented convention; poll_rx writes 0 when it consumes a
	// frame). Non-zero means the driver has not caught up — overwriting
	// the unconsumed frame would corrupt the ring, so the wire drops the
	// frame instead, and rxTail stays on the slot so delivery resumes
	// there once the driver drains it.
	if length, err := io.Read64Force(desc + 8); err != nil || length != 0 {
		n.Dropped++
		return
	}
	if err := io.WriteBytesForce(buf, frame); err != nil {
		n.Dropped++
		return
	}
	if err := io.Write64Force(desc+8, uint64(len(frame))); err != nil {
		n.Dropped++
		return
	}
	q.rxTail++
	q.RxFrames++
	n.RxFrames++
	n.RxBytes += uint64(len(frame))
	n.noteRxLocked(q)
}

// TakeHostFrames drains the host-side capture queue (load-generator
// receive path).
func (n *NIC) TakeHostFrames() [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.hostRx
	n.hostRx = nil
	return out
}

// XHCI is a minimal USB 3.0 host-controller stand-in: a port status
// register block the xhci driver polls. It exists so the Fig. 8 workload
// can re-randomize a USB driver as "extra load", as the paper does.
type XHCI struct {
	mu        sync.Mutex
	Polls     uint64
	connected bool
}

// xHCI MMIO register map.
const (
	XHCIRegPortStatus = 0x00 // bit 0: device connected
	XHCIRegControl    = 0x08 // write 1: reset port
)

// NewXHCI returns a controller with one connected port.
func NewXHCI() *XHCI { return &XHCI{connected: true} }

// DevName implements bus.Device.
func (x *XHCI) DevName() string { return "xhci" }

// DevPages implements bus.Device.
func (x *XHCI) DevPages() int { return 1 }

// MMIORead implements mm.MMIOHandler.
func (x *XHCI) MMIORead(off uint64) uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	if off == XHCIRegPortStatus {
		x.Polls++
		if x.connected {
			return 1
		}
	}
	return 0
}

// MMIOWrite implements mm.MMIOHandler.
func (x *XHCI) MMIOWrite(off uint64, val uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if off == XHCIRegControl && val == 1 {
		x.connected = true
	}
}

// ObsStats implements obs.StatSource: cumulative ring counters the
// engine delta-samples at round barriers to derive NIC trace events.
func (n *NIC) ObsStats(dst []obs.Stat) []obs.Stat {
	return append(dst,
		obs.Stat{Name: "tx_frames", Value: n.TxFrames},
		obs.Stat{Name: "rx_frames", Value: n.RxFrames},
		obs.Stat{Name: "dropped", Value: n.Dropped},
		obs.Stat{Name: "irqs_asserted", Value: n.IRQsAsserted},
	)
}
