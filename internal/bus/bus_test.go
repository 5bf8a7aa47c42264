package bus

import (
	"testing"

	"adelie/internal/mm"
)

// fakeDev is a minimal Device; with line != nil it is also an IRQDevice,
// and with epoch=true an EpochDevice.
type fakeDev struct {
	name   string
	pages  int
	regs   map[uint64]uint64
	line   *Line
	now    func() uint64
	epochs int
}

func (d *fakeDev) DevName() string { return d.name }
func (d *fakeDev) DevPages() int   { return d.pages }
func (d *fakeDev) MMIORead(off uint64) uint64 {
	return d.regs[off]
}
func (d *fakeDev) MMIOWrite(off uint64, val uint64) {
	if d.regs == nil {
		d.regs = map[uint64]uint64{}
	}
	d.regs[off] = val
}

type irqDev struct{ fakeDev }

func (d *irqDev) ConnectIRQ(l *Line, now func() uint64) { d.line, d.now = l, now }

type epochDev struct{ fakeDev }

func (d *epochDev) BeginEpoch() { d.epochs++ }
func (d *epochDev) EndEpoch()   { d.epochs++ }

func newBus(t *testing.T) *Bus {
	t.Helper()
	as := mm.NewAddressSpace(mm.NewPhysMem())
	return New(as, mm.KernelBase+0x7_0000_0000)
}

// TestAttachAllocatesWindowsInOrder: bases come out 64 KB apart in attach
// order, reads/writes route to the right handler, and lookups resolve.
func TestAttachAllocatesWindowsInOrder(t *testing.T) {
	b := newBus(t)
	d0 := &fakeDev{name: "a", pages: 1}
	d1 := &fakeDev{name: "b", pages: 1}
	b0, err := b.Attach(d0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := b.Attach(d1)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b0+16*mm.PageSize {
		t.Fatalf("window stride = %#x, want %#x", b1-b0, 16*mm.PageSize)
	}
	if got, ok := b.Base("b"); !ok || got != b1 {
		t.Fatalf("Base(b) = %#x,%v", got, ok)
	}
	if _, err := b.Attach(&fakeDev{name: "a", pages: 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if len(b.Devices()) != 2 {
		t.Fatalf("devices = %d", len(b.Devices()))
	}
}

// TestIRQLinesAssignedInAttachOrder: only IRQDevices get lines, numbered
// by attach order; plain devices report -1.
func TestIRQLinesAssignedInAttachOrder(t *testing.T) {
	b := newBus(t)
	plain := &fakeDev{name: "plain", pages: 1}
	i0 := &irqDev{fakeDev{name: "i0", pages: 1}}
	i1 := &irqDev{fakeDev{name: "i1", pages: 1}}
	for _, d := range []Device{plain, i0, i1} {
		if _, err := b.Attach(d); err != nil {
			t.Fatal(err)
		}
	}
	if b.IRQLine("plain") != -1 {
		t.Fatal("plain device got a line")
	}
	if i0.line.Num() != 0 || i1.line.Num() != 1 {
		t.Fatalf("lines = %d,%d, want 0,1", i0.line.Num(), i1.line.Num())
	}
	if b.IRQLine("i1") != 1 {
		t.Fatalf("IRQLine(i1) = %d", b.IRQLine("i1"))
	}
	// The clock reader hands back what the engine published.
	b.SetNow(12345)
	if i0.now() != 12345 {
		t.Fatalf("device clock = %d", i0.now())
	}
}

// TestEpochDevicesByAssertion: the epoch set is discovered from the
// attached devices, replacing the engine's old variadic.
func TestEpochDevicesByAssertion(t *testing.T) {
	b := newBus(t)
	e := &epochDev{fakeDev{name: "e", pages: 1}}
	if _, err := b.Attach(&fakeDev{name: "p", pages: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(e); err != nil {
		t.Fatal(err)
	}
	eds := b.EpochDevices()
	if len(eds) != 1 {
		t.Fatalf("epoch devices = %d, want 1", len(eds))
	}
	eds[0].BeginEpoch()
	eds[0].EndEpoch()
	if e.epochs != 2 {
		t.Fatalf("epoch calls = %d", e.epochs)
	}
}

// TestControllerCoalescesAndOrders: repeated raises of one line merge
// keeping the earliest pendingSince; TakePending drains sorted by line
// and a second call returns nothing.
func TestControllerCoalescesAndOrders(t *testing.T) {
	ic := NewIntController()
	l0, l1 := ic.addLine(), ic.addLine()
	ic.raise(l1, 500)
	ic.raise(l0, 900)
	ic.raise(l1, 300) // earlier work: Since must drop to 300
	p := ic.TakePending(nil)
	if len(p) != 2 || p[0].Line != l0 || p[1].Line != l1 {
		t.Fatalf("pending = %+v", p)
	}
	if p[0].Since != 900 || p[1].Since != 300 {
		t.Fatalf("since = %d,%d, want 900,300", p[0].Since, p[1].Since)
	}
	if len(ic.TakePending(nil)) != 0 {
		t.Fatal("pending not drained")
	}
}

// TestControllerLatencyAndTrace: delivery notes accumulate latency
// against the earliest pending work; an unhandled (spurious) delivery
// counts neither as a delivery nor toward the latency.
func TestControllerLatencyAndTrace(t *testing.T) {
	ic := NewIntController()
	l := ic.addLine()
	ic.raise(l, 100)
	p := ic.TakePending(nil)[0]
	ic.NoteDelivered(p, 400, true)
	ic.raise(l, 1000)
	p = ic.TakePending(nil)[0]
	ic.NoteDelivered(p, 1000, false)
	if ic.delivered[l] != 1 {
		t.Fatalf("delivered = %d, want 1", ic.delivered[l])
	}
	if avg := ic.AvgLatencyCycles(l); avg != 300 {
		t.Fatalf("avg latency = %f, want 300", avg)
	}
}

// TestTickReachesTickers: Tick steps armed devices implementing Ticker
// with the published clock and the force flag, and skips unarmed ones.
type tickDev struct {
	fakeDev
	armed bool
	ticks []uint64
	force bool
}

func (d *tickDev) Armed() bool { return d.armed }

func (d *tickDev) Tick(now uint64, force bool) {
	d.ticks = append(d.ticks, now)
	d.force = d.force || force
}

func TestTickReachesTickers(t *testing.T) {
	b := newBus(t)
	td := &tickDev{fakeDev: fakeDev{name: "t", pages: 1}}
	if _, err := b.Attach(td); err != nil {
		t.Fatal(err)
	}
	b.SetNow(777)
	b.Tick(true)
	if len(td.ticks) != 0 || !b.Quiet() {
		t.Fatalf("unarmed ticker ticked: ticks = %+v quiet=%v", td.ticks, b.Quiet())
	}
	td.armed = true
	if b.Quiet() {
		t.Fatal("bus quiet with an armed ticker")
	}
	b.Tick(false)
	b.Tick(true)
	if len(td.ticks) != 2 || td.ticks[0] != 777 || !td.force {
		t.Fatalf("ticks = %+v force=%v", td.ticks, td.force)
	}
}

// TestQuietTracksPendingLines: the lock-free pending count follows
// raise and drain, so Quiet flips with the pending set.
func TestQuietTracksPendingLines(t *testing.T) {
	b := newBus(t)
	d := &irqDev{fakeDev: fakeDev{name: "d", pages: 1}}
	if _, err := b.Attach(d); err != nil {
		t.Fatal(err)
	}
	if !b.Quiet() {
		t.Fatal("fresh bus not quiet")
	}
	d.line.Assert(5)
	d.line.Assert(3)
	if b.Quiet() || !b.IC().HasPending() {
		t.Fatal("raised line not seen as pending")
	}
	if p := b.IC().TakePending(nil); len(p) != 1 || p[0].Since != 3 {
		t.Fatalf("pending = %+v", p)
	}
	if !b.Quiet() || b.IC().HasPending() {
		t.Fatal("drained controller still pending")
	}
}
