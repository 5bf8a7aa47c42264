package devices

import (
	"bytes"
	"testing"

	"adelie/internal/mm"
)

func testAS(t testing.TB) (*mm.AddressSpace, uint64) {
	t.Helper()
	as := mm.NewAddressSpace(mm.NewPhysMem())
	base := mm.KernelBase + 0x100000
	if _, err := as.MapRegion(base, 16, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	return as, base
}

func TestNVMeReadViaQueues(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	d.Preload(9, []byte("hello nvme"))
	sq, cq, buf := base, base+0x1000, base+0x2000

	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)
	if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, 9, 512, buf)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)

	status, _ := as.Read64(cq)
	if status != 1 {
		t.Fatalf("completion status = %d", status)
	}
	got, _ := as.ReadBytes(buf, 10)
	if string(got) != "hello nvme" {
		t.Fatalf("DMA data = %q", got)
	}
	if d.Reads != 1 {
		t.Fatalf("reads = %d", d.Reads)
	}
}

func TestNVMeWriteThenRead(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	sq, cq, buf := base, base+0x1000, base+0x2000
	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)

	if err := as.WriteBytes(buf, []byte("persist me")); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdWrite, 3, 512, buf)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)
	if string(d.media[3][:10]) != "persist me" {
		t.Fatal("write did not reach media")
	}
	// Read it back through the queue into a different buffer.
	buf2 := base + 0x3000
	if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, 3, 512, buf2)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)
	got, _ := as.ReadBytes(buf2, 10)
	if string(got) != "persist me" {
		t.Fatalf("read back %q", got)
	}
}

// TestNVMeReadDMAReusesNoStaleBytes: read DMA stages through a buffer
// the controller reuses from command to command. A full read followed
// by a read of a short block and an absent LBA must deliver the short
// block and then zeros, with no byte of the first command left over.
func TestNVMeReadDMAReusesNoStaleBytes(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	sq, cq, buf, buf2 := base, base+0x1000, base+0x2000, base+0x3000
	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)
	full := bytes.Repeat([]byte{0xAA}, 512)
	for lba := uint64(20); lba < 24; lba++ {
		d.Preload(lba, full)
	}
	d.Preload(9, []byte("server block"))
	read := func(lba, count, dst uint64) []byte {
		t.Helper()
		if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, lba, count, dst)); err != nil {
			t.Fatal(err)
		}
		d.MMIOWrite(NVMeRegDoorbell, 0)
		got, err := as.ReadBytes(dst, int(count))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(20, 2048, buf); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 2048)) {
		t.Fatalf("first read delivered %x…, want 2048 × aa", got[:16])
	}
	// The second command's guest buffer starts non-zero, so zeros in it
	// can only come from the DMA.
	if err := as.WriteBytes(buf2, bytes.Repeat([]byte{0x55}, 1024)); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1024)
	copy(want, "server block")
	if got := read(9, 1024, buf2); !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("second read byte %d = %#x, want %#x (short block, then zeros)", i, got[i], want[i])
	}
}

func TestNVMeCacheLatency(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	sq, cq, buf := base, base+0x1000, base+0x2000
	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)
	d.Preload(1, []byte("x"))

	read := func() uint64 {
		if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, 1, 512, buf)); err != nil {
			t.Fatal(err)
		}
		d.MMIOWrite(NVMeRegDoorbell, 0)
		return d.MMIORead(NVMeRegLatency)
	}
	if lat := read(); lat != NVMeMediaLatency {
		t.Fatalf("cold read latency = %d, want media %d", lat, NVMeMediaLatency)
	}
	if lat := read(); lat != NVMeCacheLatency {
		t.Fatalf("warm read latency = %d, want cache %d", lat, NVMeCacheLatency)
	}
}

func TestNVMeCacheEviction(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	d.cacheCap = 2
	sq, cq, buf := base, base+0x1000, base+0x2000
	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)
	for lba := uint64(0); lba < 5; lba++ {
		if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, lba, 512, buf)); err != nil {
			t.Fatal(err)
		}
		d.MMIOWrite(NVMeRegDoorbell, 0)
	}
	if len(d.cachedLBA) > 2 {
		t.Fatalf("cache grew to %d entries, cap 2", len(d.cachedLBA))
	}
}

func TestNVMeIgnoresDoorbellWithoutQueues(t *testing.T) {
	as, _ := testAS(t)
	d := NewNVMe(as)
	d.MMIOWrite(NVMeRegDoorbell, 0) // must not panic or fault
	if d.Reads != 0 {
		t.Fatal("phantom read")
	}
}

func setupNICPair(t *testing.T) (*mm.AddressSpace, *NIC, *NIC, uint64) {
	t.Helper()
	as, base := testAS(t)
	a, b := NewNIC(as), NewNIC(as)
	Connect(a, b)
	// a gets rings; b stays host-driven.
	txRing, rxRing := base, base+0x1000
	a.MMIOWrite(NICRegTxRing, txRing)
	a.MMIOWrite(NICRegRxRing, rxRing)
	a.MMIOWrite(NICRegRingLen, 8)
	// Post RX buffers.
	for i := uint64(0); i < 8; i++ {
		if err := as.Write64(rxRing+i*16, base+0x4000+i*0x800); err != nil {
			t.Fatal(err)
		}
	}
	return as, a, b, base
}

func TestNICTransmitToPeer(t *testing.T) {
	as, a, b, base := setupNICPair(t)
	payload := []byte("frame payload")
	if err := as.WriteBytes(base+0x2000, payload); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(base, base+0x2000); err != nil { // tx desc 0: buf
		t.Fatal(err)
	}
	if err := as.Write64(base+8, uint64(len(payload))); err != nil { // len
		t.Fatal(err)
	}
	a.MMIOWrite(NICRegTxDoorbell, 0)
	if a.TxFrames != 1 || a.TxBytes != uint64(len(payload)) {
		t.Fatalf("tx stats %d/%d", a.TxFrames, a.TxBytes)
	}
	frames := b.TakeHostFrames()
	if len(frames) != 1 || string(frames[0]) != "frame payload" {
		t.Fatalf("peer frames = %q", frames)
	}
	if len(b.TakeHostFrames()) != 0 {
		t.Fatal("host queue not drained")
	}
}

func TestNICDeliverIntoRing(t *testing.T) {
	as, a, _, _ := setupNICPair(t)
	a.Deliver([]byte("incoming"))
	if a.RxFrames != 1 {
		t.Fatal("rx frame not counted")
	}
	head := a.MMIORead(NICRegRxHead)
	if head != 1 {
		t.Fatalf("rx head = %d", head)
	}
	// The descriptor now carries the length and the buffer the data.
	rxRing := a.MMIORead(NICRegRxRing)
	n, _ := as.Read64(rxRing + 8)
	if n != 8 {
		t.Fatalf("descriptor length = %d", n)
	}
	buf, _ := as.Read64(rxRing)
	got, _ := as.ReadBytes(buf, 8)
	if string(got) != "incoming" {
		t.Fatalf("ring data = %q", got)
	}
}

func TestNICDropsOversizedAndBadFrames(t *testing.T) {
	as, a, _, base := setupNICPair(t)
	if err := as.Write64(base, base+0x2000); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(base+8, 1<<20); err != nil { // absurd length
		t.Fatal(err)
	}
	a.MMIOWrite(NICRegTxDoorbell, 0)
	if a.Dropped != 1 || a.TxFrames != 0 {
		t.Fatalf("oversized frame not dropped: %d/%d", a.Dropped, a.TxFrames)
	}
}

func TestNICLoopbackWithoutPeer(t *testing.T) {
	as, base := testAS(t)
	n := NewNIC(as)
	txRing, rxRing := base, base+0x1000
	n.MMIOWrite(NICRegTxRing, txRing)
	n.MMIOWrite(NICRegRxRing, rxRing)
	n.MMIOWrite(NICRegRingLen, 4)
	if err := as.Write64(rxRing, base+0x3000); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(base+0x2000, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(txRing, base+0x2000); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(txRing+8, 4); err != nil {
		t.Fatal(err)
	}
	n.MMIOWrite(NICRegTxDoorbell, 0)
	if n.RxFrames != 1 {
		t.Fatal("loopback frame lost")
	}
	got, _ := as.ReadBytes(base+0x3000, 4)
	if string(got) != "loop" {
		t.Fatalf("loopback data = %q", got)
	}
}

func TestXHCIPortStatus(t *testing.T) {
	x := NewXHCI()
	if x.MMIORead(XHCIRegPortStatus) != 1 {
		t.Fatal("port should start connected")
	}
	if x.Polls != 1 {
		t.Fatal("poll not counted")
	}
	x.connected = false
	if x.MMIORead(XHCIRegPortStatus) != 0 {
		t.Fatal("disconnected port reads 1")
	}
	x.MMIOWrite(XHCIRegControl, 1) // reset reconnects
	if x.MMIORead(XHCIRegPortStatus) != 1 {
		t.Fatal("reset did not reconnect")
	}
}
