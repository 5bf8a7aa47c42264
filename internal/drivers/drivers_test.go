package drivers_test

import (
	"testing"

	"adelie/internal/drivers"
	"adelie/internal/kernel"
	"adelie/internal/sim"
)

// allConfigs spans the evaluation matrix.
var allConfigs = map[string]drivers.BuildOpts{
	"vanilla":     {},
	"vanilla-ret": {Retpoline: true},
	"pic":         {PIC: true},
	"pic-ret":     {PIC: true, Retpoline: true},
	"rerand":      {PIC: true, Rerand: true},
	"rerand-full": {PIC: true, Retpoline: true, Rerand: true, StackRerand: true, RetEncrypt: true},
}

func TestBuildAllConfigs(t *testing.T) {
	for cfg, opts := range allConfigs {
		for name, mk := range drivers.All() {
			obj, err := drivers.Build(mk(), opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg, name, err)
			}
			if err := obj.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", cfg, name, err)
			}
		}
	}
}

func newMachine(t *testing.T) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(sim.Config{NumCPUs: 4, Seed: 21, KASLR: kernel.KASLRFull64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fullOpts() drivers.BuildOpts {
	return drivers.BuildOpts{PIC: true, Retpoline: true, Rerand: true, StackRerand: true, RetEncrypt: true}
}

func TestDummyIoctl(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("dummy", fullOpts()); err != nil {
		t.Fatal(err)
	}
	if ret, err := m.Call("dummy_ioctl", 0); err != nil || ret != 0 {
		t.Fatalf("null ioctl = (%d, %v)", ret, err)
	}
	if ret, err := m.Call("dummy_ioctl", 0x5401); err != nil || ret != 0 {
		t.Fatalf("TCGETS ioctl = (%d, %v)", ret, err)
	}
	ret, err := m.Call("dummy_ioctl", 99)
	if err != nil {
		t.Fatal(err)
	}
	if int64(ret) != -22 {
		t.Fatalf("bad ioctl = %d, want -EINVAL", int64(ret))
	}
}

func TestNVMeReadThroughDriver(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("nvme", fullOpts()); err != nil {
		t.Fatal(err)
	}
	if err := m.InitNVMe(); err != nil {
		t.Fatal(err)
	}
	m.NVMe.Preload(5, []byte("adelie block data"))
	buf, err := m.K.Kmalloc(512)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := m.Call("nvme_read", buf, 5, 512)
	if err != nil {
		t.Fatal(err)
	}
	if lat == 0 {
		t.Fatal("driver reported failure")
	}
	got, err := m.K.AS.ReadBytes(buf, 17)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "adelie block data" {
		t.Fatalf("DMA data = %q", got)
	}
	// First read of an LBA misses the controller cache; the second hits.
	lat2, err := m.Call("nvme_read", buf, 5, 512)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 >= lat {
		t.Fatalf("cache hit latency %d not below miss latency %d", lat2, lat)
	}
	if m.NVMe.CacheHits == 0 {
		t.Fatal("no controller cache hit recorded")
	}
}

func TestNICTransmitReceiveLoop(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("e1000e", fullOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InitNIC("e1000e"); err != nil {
		t.Fatal(err)
	}
	// Load generator sends a frame to the server NIC.
	m.NIC.Deliver([]byte("GET /index.html"))
	// Driver polls RX slot 0.
	n, err := m.Call("e1000e_poll_rx", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("poll_rx = %d, want 15", n)
	}
	// Transmit a response.
	buf, err := m.K.Kmalloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.AS.Write64(buf, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("e1000e_xmit", buf, 1000, 0); err != nil {
		t.Fatal(err)
	}
	if m.NIC.TxFrames != 1 || m.NIC.TxBytes != 1000 {
		t.Fatalf("tx stats = %d frames / %d bytes", m.NIC.TxFrames, m.NIC.TxBytes)
	}
	if m.Peer.RxFrames != 1 {
		t.Fatal("peer did not receive the frame")
	}
}

// TestNICNapiISRDrainsRing: the interrupt path end to end — the wire
// delivers frames into the RX ring (asserting the NIC's bus line), the
// kernel dispatches the driver's NAPI ISR, and the ISR masks, drains
// every frame, unmasks, and leaves the ring refillable.
func TestNICNapiISRDrainsRing(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("e1000e", fullOpts()); err != nil {
		t.Fatal(err)
	}
	ringLen, err := m.InitNIC("e1000e")
	if err != nil {
		t.Fatal(err)
	}
	line := m.NIC.IRQLine()
	if line < 0 {
		t.Fatal("server NIC got no IRQ line")
	}
	for i := 0; i < 5; i++ {
		m.NIC.Deliver([]byte("frame"))
	}
	// Per-frame coalescing default: every delivery asserted the line.
	if m.NIC.IRQsAsserted != 5 {
		t.Fatalf("asserts = %d, want 5", m.NIC.IRQsAsserted)
	}
	for _, p := range m.Bus.IC().TakePending(nil) {
		handled, err := m.K.DispatchIRQ(m.K.CPU(0), p.Line)
		if err != nil {
			t.Fatal(err)
		}
		if !handled {
			t.Fatalf("line %d spurious", p.Line)
		}
	}
	if n, err := m.Call("e1000e_rx_count"); err != nil || n != 5 {
		t.Fatalf("rx_count = (%d, %v), want 5", n, err)
	}
	// The ring is drained: the device can deliver a full ring again.
	for i := uint64(0); i < ringLen; i++ {
		m.NIC.Deliver([]byte("again"))
	}
	if m.NIC.Dropped != 0 {
		t.Fatalf("dropped %d frames on a drained ring", m.NIC.Dropped)
	}
	// And frames past the full ring drop without overwriting.
	m.NIC.Deliver([]byte("overrun"))
	if m.NIC.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", m.NIC.Dropped)
	}
}

// TestNICISRSurvivesRerand: the registered vector points into the
// movable part; after moves + drain, interrupts still land.
func TestNICISRSurvivesRerand(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("e1000e", fullOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InitNIC("e1000e"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.R.Step(); err != nil {
			t.Fatal(err)
		}
	}
	m.K.SMR.Flush()
	m.NIC.Deliver([]byte("post-move"))
	for _, p := range m.Bus.IC().TakePending(nil) {
		if handled, err := m.K.DispatchIRQ(m.K.CPU(0), p.Line); err != nil || !handled {
			t.Fatalf("post-move dispatch = (%v, %v)", handled, err)
		}
	}
	if n, err := m.Call("e1000e_rx_count"); err != nil || n != 1 {
		t.Fatalf("rx_count = (%d, %v), want 1", n, err)
	}
}

func TestExt4GetBlock(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("ext4", fullOpts()); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ blk, lba uint64 }{
		{0, 0x8000},
		{100, 0x8000 + 100},
		{512, 0x9000},                  // second extent
		{1500, 0xA000 + (1500 - 1024)}, // third extent
	}
	for _, c := range cases {
		got, err := m.Call("ext4_get_block", 1, c.blk)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.lba {
			t.Fatalf("get_block(%d) = %#x, want %#x", c.blk, got, c.lba)
		}
	}
}

func TestFuseDispatch(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("fuse", fullOpts()); err != nil {
		t.Fatal(err)
	}
	for _, op := range []uint64{1, 3, 15} {
		if ret, err := m.Call("fuse_dispatch", op); err != nil || ret != 0 {
			t.Fatalf("fuse op %d = (%d, %v)", op, int64(ret), err)
		}
	}
	ret, err := m.Call("fuse_dispatch", 77)
	if err != nil {
		t.Fatal(err)
	}
	if int64(ret) != -38 {
		t.Fatalf("unknown fuse op = %d, want -ENOSYS", int64(ret))
	}
}

func TestXHCIPoll(t *testing.T) {
	m := newMachine(t)
	if _, err := m.LoadDriver("xhci", fullOpts()); err != nil {
		t.Fatal(err)
	}
	if err := m.InitXHCI(); err != nil {
		t.Fatal(err)
	}
	status, err := m.Call("xhci_poll")
	if err != nil {
		t.Fatal(err)
	}
	if status != 1 {
		t.Fatalf("port status = %d, want connected", status)
	}
	if m.XHCI.Polls == 0 {
		t.Fatal("device did not observe the poll")
	}
}

func TestAllDriversSurviveRerandomization(t *testing.T) {
	m := newMachine(t)
	for _, name := range []string{"dummy", "nvme", "e1000e", "ext4", "fuse", "xhci"} {
		if _, err := m.LoadDriver(name, fullOpts()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := m.InitNVMe(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InitNIC("e1000e"); err != nil {
		t.Fatal(err)
	}
	if err := m.InitXHCI(); err != nil {
		t.Fatal(err)
	}
	buf, err := m.K.Kmalloc(512)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if _, err := m.R.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := m.Call("dummy_ioctl", 0); err != nil {
			t.Fatalf("round %d ioctl: %v", round, err)
		}
		if lat, err := m.Call("nvme_read", buf, 1, 512); err != nil || lat == 0 {
			t.Fatalf("round %d nvme: (%d, %v)", round, lat, err)
		}
		if _, err := m.Call("ext4_get_block", 1, 7); err != nil {
			t.Fatalf("round %d ext4: %v", round, err)
		}
		if _, err := m.Call("xhci_poll"); err != nil {
			t.Fatalf("round %d xhci: %v", round, err)
		}
	}
	m.K.SMR.Flush()
	if d := m.K.SMR.Stats().Delta(); d != 0 {
		t.Fatalf("SMR delta = %d", d)
	}
}

func TestDriverSizesPICvsNonPIC(t *testing.T) {
	// Fig. 5a's measurement at module level: both builds exist and the
	// size accounting is non-zero and model-dependent.
	for name, mk := range drivers.All() {
		plain, err := drivers.Build(mk(), drivers.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pic, err := drivers.Build(mk(), drivers.BuildOpts{PIC: true, Retpoline: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.TotalSize() == 0 || pic.TotalSize() == 0 {
			t.Fatalf("%s: zero size", name)
		}
	}
}
