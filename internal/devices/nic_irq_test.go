package devices

import (
	"fmt"
	"testing"

	"adelie/internal/bus"
	"adelie/internal/mm"
)

// irqNIC attaches a ring NIC to a bus so it gets a line, and returns the
// controller for assertions. now is mutable through the returned setter.
func irqNIC(t *testing.T, ringLen uint64) (*mm.AddressSpace, *NIC, *bus.Bus, uint64) {
	t.Helper()
	as := mm.NewAddressSpace(mm.NewPhysMem())
	base := mm.KernelBase + 0x100000
	if _, err := as.MapRegion(base, 64, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	b := bus.New(as, mm.KernelBase+0x7_0000_0000)
	n := NewNIC(as)
	n.Name = "nic0"
	if _, err := b.Attach(n); err != nil {
		t.Fatal(err)
	}
	rxRing := base + 0x1000
	n.MMIOWrite(NICRegRxRing, rxRing)
	n.MMIOWrite(NICRegRingLen, ringLen)
	for i := uint64(0); i < ringLen; i++ {
		if err := as.Write64(rxRing+i*16, base+0x4000+i*0x800); err != nil {
			t.Fatal(err)
		}
	}
	return as, n, b, rxRing
}

// TestNICAssertsPerFrameByDefault: with no coalescing configured, every
// ring delivery raises the line once.
func TestNICAssertsPerFrameByDefault(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	line := n.IRQLine()
	if line != 0 {
		t.Fatalf("line = %d, want 0", line)
	}
	for i := 0; i < 3; i++ {
		n.Deliver([]byte(fmt.Sprintf("f%d", i)))
	}
	if got := n.IRQsAsserted; got != 3 {
		t.Fatalf("raised = %d, want 3", got)
	}
	// All three raises coalesce into one pending delivery.
	if p := b.IC().TakePending(nil); len(p) != 1 || p[0].Line != line {
		t.Fatalf("pending = %+v", p)
	}
}

// TestNICCoalescingFrameThreshold: with maxFrames=4, three frames stay
// silent; the fourth asserts, covering all four.
func TestNICCoalescingFrameThreshold(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	n.SetCoalescing(4, 1_000_000)
	for i := 0; i < 3; i++ {
		n.Deliver([]byte("x"))
	}
	if got := n.IRQsAsserted; got != 0 || b.IC().HasPending() {
		t.Fatalf("asserted below threshold: %d", got)
	}
	n.Deliver([]byte("x"))
	if got := n.IRQsAsserted; got != 1 || !b.IC().HasPending() {
		t.Fatalf("raised = %d, want 1 pending on the bus", got)
	}
}

// TestNICCoalescingDelayFlushOnTick: below the frame threshold, the line
// asserts at a clock boundary once the oldest frame has waited past the
// delay, stamping pendingSince with the arrival-time clock value.
func TestNICCoalescingDelayFlushOnTick(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	n.SetCoalescing(16, 500)
	b.SetNow(1000)
	n.Deliver([]byte("x"))
	n.Tick(1400, false) // 400 < 500: not yet
	if got := n.IRQsAsserted; got != 0 {
		t.Fatalf("asserted before delay: %d", got)
	}
	n.Tick(1500, false)
	p := b.IC().TakePending(nil)
	if len(p) != 1 || p[0].Since != 1000 {
		t.Fatalf("pending = %+v, want since=1000", p)
	}
	// Force tick flushes regardless of thresholds.
	n.Deliver([]byte("y"))
	n.Tick(1501, true)
	if got := n.IRQsAsserted; got != 2 {
		t.Fatalf("force tick did not flush: raised=%d", got)
	}
}

// TestNICMaskDefersAndUnmaskReasserts: NAPI discipline — while masked,
// deliveries accumulate silently; unmasking with pending frames
// re-asserts immediately so no work goes unsignalled.
func TestNICMaskDefersAndUnmaskReasserts(t *testing.T) {
	_, n, b, _ := irqNIC(t, 8)
	n.MMIOWrite(NICRegIntCtl, 1) // mask
	if n.MMIORead(NICRegIntCtl) != 1 {
		t.Fatal("mask state not readable")
	}
	n.Deliver([]byte("a"))
	n.Deliver([]byte("b"))
	if got := n.IRQsAsserted; got != 0 || b.IC().HasPending() {
		t.Fatalf("masked NIC asserted %d times", got)
	}
	n.MMIOWrite(NICRegIntCtl, 0) // unmask → re-assert
	if got := n.IRQsAsserted; got != 1 || !b.IC().HasPending() {
		t.Fatalf("unmask re-assert: raised=%d, want 1 pending on the bus", got)
	}
	// Nothing pending after the re-assert: a further unmask is silent.
	n.MMIOWrite(NICRegIntCtl, 1)
	n.MMIOWrite(NICRegIntCtl, 0)
	if got := n.IRQsAsserted; got != 1 {
		t.Fatalf("spurious re-assert: raised=%d", got)
	}
}

// TestNICNoIRQWithoutBus: an unattached NIC (no line wired) delivers
// without asserting — the pre-bus polling behavior.
func TestNICNoIRQWithoutBus(t *testing.T) {
	_, n, _ := ringNIC(t, 4)
	n.Deliver([]byte("quiet"))
	if n.IRQsAsserted != 0 {
		t.Fatal("lineless NIC asserted an IRQ")
	}
}

// TestHostRxCapConsumesOverflow: the load-generator capture queue is
// bounded (compaction amortized at 2×cap); overflow frames count as
// consumed, counters keep counting, and the stored tail is the most
// recent frames.
func TestHostRxCapConsumesOverflow(t *testing.T) {
	as := mm.NewAddressSpace(mm.NewPhysMem())
	n := NewNIC(as)               // no ring: host-driven side
	const total = 3*hostRxCap + 1 // trims at 2×cap and 3×cap, then one more lands
	for i := 0; i < total; i++ {
		n.Deliver([]byte(fmt.Sprintf("f%05d", i)))
	}
	if n.RxFrames != total {
		t.Fatalf("RxFrames = %d, want %d", n.RxFrames, total)
	}
	frames := n.TakeHostFrames()
	if len(frames) >= 2*hostRxCap {
		t.Fatalf("stored = %d, cap %d not enforced", len(frames), hostRxCap)
	}
	if n.HostConsumed+uint64(len(frames)) != total {
		t.Fatalf("consumed %d + stored %d != %d", n.HostConsumed, len(frames), total)
	}
	if got, want := string(frames[len(frames)-1]), fmt.Sprintf("f%05d", total-1); got != want {
		t.Fatalf("newest kept frame = %q, want %s", got, want)
	}
	if got := string(frames[0]); got != fmt.Sprintf("f%05d", n.HostConsumed) {
		t.Fatalf("oldest kept frame = %q with %d consumed", got, n.HostConsumed)
	}
}
