package sim_test

import (
	"bytes"
	"testing"

	"adelie/internal/devices"
	"adelie/internal/mm"
	"adelie/internal/sim"
)

// dmaTemplate is a frozen machine whose NVMe controller and NIC have
// already done DMA, so each holds a warm translation cache over the
// template's frames. The NVMe submission entry reads LBA 1 into buf;
// the NIC's TX descriptor points at a frame reading "template". buf
// sits on a page of its own, which no later setup write touches.
type dmaTemplate struct {
	m                    *sim.Machine
	sq, cq, buf, tx, frm uint64
}

var (
	lba1 = bytes.Repeat([]byte("one-"), 128)
	lba2 = bytes.Repeat([]byte("two+"), 128)
)

func newDMATemplate(t *testing.T) dmaTemplate {
	t.Helper()
	m := newMachine(t)
	alloc := func(n uint64) uint64 {
		va, err := m.K.Kmalloc(n)
		if err != nil {
			t.Fatal(err)
		}
		return va
	}
	d := dmaTemplate{m: m, sq: alloc(64), cq: alloc(64), tx: alloc(64), frm: alloc(64)}
	alloc(mm.PageSize) // keeps buf off the pages above
	d.buf = alloc(512)
	if d.buf&mm.PageMask > mm.PageSize-512 {
		t.Fatal("buf straddles a page: the test assumes one buffer page")
	}
	m.NVMe.Preload(1, lba1)
	m.NVMe.Preload(2, lba2)
	m.NVMe.MMIOWrite(devices.NVMeRegSQBase, d.sq)
	m.NVMe.MMIOWrite(devices.NVMeRegCQBase, d.cq)
	writes := []struct {
		va uint64
		b  []byte
	}{
		{d.sq, devices.EncodeSQEntry(devices.NVMeCmdRead, 1, 512, d.buf)},
		{d.frm, []byte("template")},
	}
	for _, w := range writes {
		if err := m.K.AS.WriteBytes(w.va, w.b); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range [][2]uint64{{d.tx, d.frm}, {d.tx + 8, 8}} {
		if err := m.K.AS.Write64(w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	m.NVMe.MMIOWrite(devices.NVMeRegDoorbell, 0)
	m.NIC.MMIOWrite(devices.NICRegTxRing, d.tx)
	m.NIC.MMIOWrite(devices.NICRegRingLen, 1)
	m.NIC.MMIOWrite(devices.NICRegTxDoorbell, 0)
	if got := m.Peer.TakeHostFrames(); len(got) != 1 || string(got[0]) != "template" {
		t.Fatalf("template NIC sent %q", got)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d dmaTemplate) fork(t *testing.T) *sim.Machine {
	t.Helper()
	f, err := d.m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Release() })
	return f
}

func readAt(t *testing.T, as *mm.AddressSpace, va uint64, n int) []byte {
	t.Helper()
	b, err := as.ReadBytes(va, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestForkNVMeReadDMAIntoSharedPage(t *testing.T) {
	// A fork's NVMe read DMAs into a buffer page it still shares with
	// the template. The write detaches the page in the fork only, and a
	// vCPU TLB entry the fork cached before the DMA reads the new bytes.
	d := newDMATemplate(t)
	f, sib := d.fork(t), d.fork(t)
	c := f.K.CPU(0)
	if _, _, err := c.TLB.Entry(d.buf, mm.AccessRead); err != nil {
		t.Fatal(err)
	}
	if err := f.K.AS.WriteBytes(d.sq, devices.EncodeSQEntry(devices.NVMeCmdRead, 2, 512, d.buf)); err != nil {
		t.Fatal(err)
	}
	f.NVMe.MMIOWrite(devices.NVMeRegDoorbell, 0)
	e, hit, err := c.TLB.Entry(d.buf, mm.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("the buffer's TLB entry was dropped: the test no longer reads through a cached entry")
	}
	off := d.buf & mm.PageMask
	if got := e.Bytes()[off : off+512]; !bytes.Equal(got, lba2) {
		t.Fatalf("cached TLB entry reads %.16q... after the fork's DMA, want LBA 2", got)
	}
	for name, m := range map[string]*sim.Machine{"template": d.m, "sibling": sib} {
		if got := readAt(t, m.K.AS, d.buf, 512); !bytes.Equal(got, lba1) {
			t.Fatalf("%s buffer reads %.16q... after the fork's DMA, want LBA 1", name, got)
		}
	}
	if n := f.K.AS.Phys().COWDetaches(); n == 0 {
		t.Fatal("the fork's DMA detached nothing")
	}
}

func TestForkDevicesFillTheirOwnIOTLB(t *testing.T) {
	// The template's devices cached translations of its own frames. A
	// fork rewrites the NVMe submission entry and the NIC TX descriptor
	// (detaching those pages in the fork); its devices must read the
	// fork's bytes, which a cache inherited from the template would not.
	d := newDMATemplate(t)
	f := d.fork(t)
	if err := f.K.AS.WriteBytes(d.sq, devices.EncodeSQEntry(devices.NVMeCmdRead, 2, 512, d.buf)); err != nil {
		t.Fatal(err)
	}
	f.NVMe.MMIOWrite(devices.NVMeRegDoorbell, 0)
	if got := readAt(t, f.K.AS, d.buf, 512); !bytes.Equal(got, lba2) {
		t.Fatalf("fork NVMe DMA'd %.16q..., want LBA 2 (a stale submission entry?)", got)
	}
	alt := d.frm + 16
	if err := f.K.AS.WriteBytes(alt, []byte("fork")); err != nil {
		t.Fatal(err)
	}
	if err := f.K.AS.Write64(d.tx, alt); err != nil {
		t.Fatal(err)
	}
	if err := f.K.AS.Write64(d.tx+8, 4); err != nil {
		t.Fatal(err)
	}
	f.NIC.MMIOWrite(devices.NICRegTxDoorbell, 0)
	if got := f.Peer.TakeHostFrames(); len(got) != 1 || string(got[0]) != "fork" {
		t.Fatalf("fork NIC sent %q, want [fork]", got)
	}
	if got := readAt(t, d.m.K.AS, d.sq, 32); !bytes.Equal(got, devices.EncodeSQEntry(devices.NVMeCmdRead, 1, 512, d.buf)) {
		t.Fatal("the fork's writes reached the template's submission entry")
	}
	if got := readAt(t, d.m.K.AS, d.buf, 512); !bytes.Equal(got, lba1) {
		t.Fatal("the fork's DMA reached the template's buffer")
	}
}
