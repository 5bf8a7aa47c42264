package cpu

import (
	"encoding/binary"
	"testing"

	"adelie/internal/isa"
	"adelie/internal/mm"
)

const mmioBase = mm.KernelBase + 0x400000

// countingMMIO counts handler calls and records what each last saw.
type countingMMIO struct {
	reads, writes     int
	readOff, writeOff uint64
	writeVal, readVal uint64
}

func (d *countingMMIO) MMIORead(off uint64) uint64 { d.reads++; d.readOff = off; return d.readVal }
func (d *countingMMIO) MMIOWrite(off, val uint64)  { d.writes++; d.writeOff, d.writeVal = off, val }

func TestMMIOThroughResidentTLBEntry(t *testing.T) {
	// A load and a store to a device page whose translation the TLB
	// already holds each reach the handler exactly once, at the offset
	// within the region, and miss nothing.
	c := machine(t, []isa.Inst{
		{Op: isa.OpMOVABS, R1: isa.RBX, Imm: int64(mmioBase)},
		{Op: isa.OpMOVI, R1: isa.RAX, Imm: 0x66},
		{Op: isa.OpSTORE, R1: isa.RAX, R2: isa.RBX, Disp: mm.PageSize + 0x28},
		{Op: isa.OpLOAD, R1: isa.RAX, R2: isa.RBX, Disp: mm.PageSize + 0x30},
		{Op: isa.OpRET},
	})
	dev := &countingMMIO{readVal: 0x5150}
	if err := c.AS.RegisterMMIO(mmioBase, 2, dev); err != nil {
		t.Fatal(err)
	}
	for _, a := range []mm.Access{mm.AccessRead, mm.AccessWrite} {
		if _, _, err := c.TLB.Entry(mmioBase+mm.PageSize, a); err != nil {
			t.Fatal(err)
		}
	}
	_, misses, _ := c.TLB.Stats()
	v, err := c.load64(mmioBase + mm.PageSize + 0x18)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5150 || dev.reads != 1 || dev.readOff != mm.PageSize+0x18 {
		t.Fatalf("load: value %#x, %d handler reads, last at %#x; want 0x5150, 1, %#x", v, dev.reads, dev.readOff, mm.PageSize+0x18)
	}
	if err := c.store64(mmioBase+mm.PageSize+0x20, 0x77); err != nil {
		t.Fatal(err)
	}
	if dev.writes != 1 || dev.writeOff != mm.PageSize+0x20 || dev.writeVal != 0x77 {
		t.Fatalf("store: %d handler writes, last %#x at %#x; want 1, 0x77 at %#x", dev.writes, dev.writeVal, dev.writeOff, mm.PageSize+0x20)
	}
	if _, m, _ := c.TLB.Stats(); m != misses {
		t.Fatalf("%d TLB misses on a resident device page", m-misses)
	}
	// The same through guest code: the block executor's probe declines
	// the device page and the full path routes it, once per access.
	if got := run(t, c); got != 0x5150 {
		t.Fatalf("guest MMIO load = %#x, want 0x5150", got)
	}
	if dev.reads != 2 || dev.readOff != mm.PageSize+0x30 || dev.writes != 2 || dev.writeOff != mm.PageSize+0x28 || dev.writeVal != 0x66 {
		t.Fatalf("guest run: %d reads (last %#x), %d writes (last %#x at %#x)", dev.reads, dev.readOff, dev.writes, dev.writeVal, dev.writeOff)
	}
}

func TestMMIOFlaggedPageWithoutRegionUsesFrame(t *testing.T) {
	// A page flagged MMIO with no registered region has no handler to
	// reach: loads and stores fall back to its frame bytes, including a
	// word straddling into the next such page.
	c := machine(t, nil)
	frames, err := c.AS.MapRegion(mmioBase, 2, mm.FlagWrite|mm.FlagMMIO)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AS.WriteBytesForce(mmioBase+8, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if v, err := c.load64(mmioBase + 8); err != nil || v != 0x0807060504030201 {
		t.Fatalf("load = (%#x, %v), want the frame's bytes", v, err)
	}
	if err := c.store64(mmioBase+16, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(c.AS.Phys().Frame(frames[0])[16:]); got != 0xABCD {
		t.Fatalf("store left %#x in the frame, want 0xABCD", got)
	}
	straddle := mmioBase + mm.PageSize - 4
	if err := c.store64(straddle, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, err := c.load64(straddle); err != nil || v != 0x1122334455667788 {
		t.Fatalf("straddling load = (%#x, %v), want 0x1122334455667788", v, err)
	}
	if got := binary.LittleEndian.Uint32(c.AS.Phys().Frame(frames[1])); got != 0x11223344 {
		t.Fatalf("straddling store left %#x at the start of the second page", got)
	}
}
