package devices

import (
	"bytes"
	"encoding/binary"
	"testing"

	"adelie/internal/mm"
)

func TestCloneStartsWithoutIOTLB(t *testing.T) {
	// A template's DMA translation cache points into frames its forks
	// share; a clone must fill its own instead of inheriting it.
	as, base := testAS(t)
	d := NewNVMe(as)
	d.MMIOWrite(NVMeRegSQBase, base)
	d.MMIOWrite(NVMeRegCQBase, base+0x1000)
	if err := as.WriteBytes(base, EncodeSQEntry(NVMeCmdRead, 1, 512, base+0x2000)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)
	n := NewNIC(as)
	n.MMIOWrite(NICRegTxRing, base+0x3000)
	n.MMIOWrite(NICRegRingLen, 1)
	n.MMIOWrite(NICRegTxDoorbell, 0)
	if d.io == nil || n.io == nil {
		t.Fatal("DMA left no translation cache: the test no longer covers a warm template")
	}
	fas := as.Fork(as.Phys().Fork())
	if d.CloneFor(fas).io != nil || n.CloneFor(fas).io != nil {
		t.Fatal("a device clone starts with its template's DMA translation cache")
	}
}

// BenchmarkNVMeReadCommand times one 512-byte NVMe read command from
// doorbell to posted completion (four SQ-entry loads, the buffer DMA and
// two CQ stores), on a never-forked address space and on a fork whose
// controller is a clone of the template's.
func BenchmarkNVMeReadCommand(b *testing.B) {
	setup := func(as *mm.AddressSpace, base uint64) *NVMe {
		d := NewNVMe(as)
		d.Preload(9, bytes.Repeat([]byte{0xA5}, 512))
		d.MMIOWrite(NVMeRegSQBase, base)
		d.MMIOWrite(NVMeRegCQBase, base+0x1000)
		if err := as.WriteBytes(base, EncodeSQEntry(NVMeCmdRead, 9, 512, base+0x2000)); err != nil {
			b.Fatal(err)
		}
		return d
	}
	run := func(b *testing.B, d *NVMe) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.MMIOWrite(NVMeRegDoorbell, 0)
		}
	}
	b.Run("cold", func(b *testing.B) {
		as, base := testAS(b)
		run(b, setup(as, base))
	})
	b.Run("fork", func(b *testing.B) {
		as, base := testAS(b)
		d := setup(as, base)
		run(b, d.CloneFor(as.Fork(as.Phys().Fork())))
	})
}

// BenchmarkNICDeliverTransmit times one 64-byte frame around a loopback
// adapter: the TX descriptor loads and frame read, then the RX
// descriptor loads, frame DMA and length store. The RX slot is freed
// through a vCPU TLB entry between frames, as poll_rx would.
func BenchmarkNICDeliverTransmit(b *testing.B) {
	setup := func(as *mm.AddressSpace, base uint64) *NIC {
		n := NewNIC(as)
		txRing, rxRing, txBuf, rxBuf := base, base+0x1000, base+0x2000, base+0x3000
		n.MMIOWrite(NICRegTxRing, txRing)
		n.MMIOWrite(NICRegRxRing, rxRing)
		n.MMIOWrite(NICRegRingLen, 1)
		for _, w := range [][2]uint64{{txRing, txBuf}, {txRing + 8, 64}, {rxRing, rxBuf}} {
			if err := as.Write64(w[0], w[1]); err != nil {
				b.Fatal(err)
			}
		}
		return n
	}
	run := func(b *testing.B, n *NIC) {
		e, _, err := mm.NewTLB(n.as).Entry(n.MMIORead(NICRegRxRing), mm.AccessWrite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.MMIOWrite(NICRegTxDoorbell, 0)
			binary.LittleEndian.PutUint64(e.WritableBytes()[8:], 0)
		}
		b.StopTimer()
		if n.Dropped != 0 || n.RxFrames != uint64(b.N) {
			b.Fatalf("rx %d frames, dropped %d, want %d and 0", n.RxFrames, n.Dropped, b.N)
		}
	}
	b.Run("cold", func(b *testing.B) {
		as, base := testAS(b)
		run(b, setup(as, base))
	})
	b.Run("fork", func(b *testing.B) {
		as, base := testAS(b)
		n := setup(as, base)
		run(b, n.CloneFor(as.Fork(as.Phys().Fork())))
	})
}
