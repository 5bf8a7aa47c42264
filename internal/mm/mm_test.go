package mm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapTranslateUnmap(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x1000
	f := as.Phys().Alloc()
	if err := as.Map(va, f, FlagWrite); err != nil {
		t.Fatal(err)
	}
	got, flags, err := as.Translate(va+123, AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if got != f || flags != FlagWrite {
		t.Fatalf("Translate = (%v,%v), want (%v,%v)", got, flags, f, FlagWrite)
	}
	unf, err := as.Unmap(va)
	if err != nil {
		t.Fatal(err)
	}
	if unf != f {
		t.Fatalf("Unmap returned frame %v, want %v", unf, f)
	}
	if _, _, err := as.Translate(va, AccessRead); err == nil {
		t.Fatal("translate after unmap should fault")
	}
}

func TestMapRejectsDoubleMap(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase
	if err := as.Map(va, as.Phys().Alloc(), 0); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(va, as.Phys().Alloc(), 0); err == nil {
		t.Fatal("double map should fail")
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	if err := as.Map(KernelBase+8, 0, 0); err == nil {
		t.Fatal("unaligned map should fail")
	}
	if _, err := as.Unmap(KernelBase + 8); err == nil {
		t.Fatal("unaligned unmap should fail")
	}
}

func TestWXEnforcement(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	if err := as.Map(KernelBase, as.Phys().Alloc(), FlagWrite|FlagExec); err == nil {
		t.Fatal("W+X mapping must be rejected")
	}
	if err := as.Map(KernelBase, as.Phys().Alloc(), FlagExec); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(KernelBase, FlagWrite|FlagExec); err == nil {
		t.Fatal("W+X protect must be rejected")
	}
}

func TestNXFault(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x2000
	if err := as.Map(va, as.Phys().Alloc(), FlagWrite); err != nil {
		t.Fatal(err)
	}
	_, _, err := as.Translate(va, AccessExec)
	var pf *PageFault
	if !errors.As(err, &pf) || pf.Access != AccessExec {
		t.Fatalf("exec of NX page: got %v, want exec PageFault", err)
	}
}

func TestSMEPFault(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = uint64(0x4000) // user half
	f := as.Phys().Alloc()
	if err := as.Map(va, f, FlagExec|FlagUser); err != nil {
		t.Fatal(err)
	}
	if _, _, err := as.Translate(va, AccessExec); err == nil {
		t.Fatal("kernel execution of user page must fault (SMEP)")
	}
}

func TestWriteProtectedPageFaults(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x3000
	if err := as.Map(va, as.Phys().Alloc(), 0); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(va, []byte{1}); err == nil {
		t.Fatal("write to read-only page must fault")
	}
	// The loader path must still be able to populate it.
	if err := as.WriteBytesForce(va, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, err := as.ReadBytes(va, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("force-write not visible: %v", b)
	}
}

func TestReadWriteAcrossPageBoundary(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	base := KernelBase + 0x10000
	if _, err := as.MapRegion(base, 2, FlagWrite); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	va := base + PageSize - 32 // straddles the boundary
	if err := as.WriteBytes(va, data); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadBytes(va, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	// 64-bit value across the boundary.
	if err := as.Write64(base+PageSize-4, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := as.Read64(base + PageSize - 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("cross-page 64-bit = %#x", v)
	}
	// Read64Force reads in place within a page and falls back to
	// ReadBytes across one; either way it agrees with ReadBytes.
	for _, off := range []uint64{PageSize - 4, PageSize - 8, PageSize} {
		b, err := as.ReadBytes(base+off, 8)
		if err != nil {
			t.Fatal(err)
		}
		v, err := as.Read64Force(base + off)
		if err != nil {
			t.Fatal(err)
		}
		if want := binary.LittleEndian.Uint64(b); v != want {
			t.Fatalf("Read64Force(base+%#x) = %#x, ReadBytes gives %#x", off, v, want)
		}
	}
	if _, err := as.Read64Force(base + 2*PageSize - 4); err == nil {
		t.Fatal("Read64Force straddling into an unmapped page must fault")
	}
}

// remap maps the frames behind npages pages at oldBase again at newBase,
// each with its own flags: a zero-copy module move, as the kernel's
// re-randomization step makes one (Lookup + Map per page).
func remap(as *AddressSpace, newBase, oldBase uint64, npages int) error {
	for i := uint64(0); i < uint64(npages); i++ {
		frame, flags, ok := as.Lookup(oldBase + i*PageSize)
		if !ok {
			return fmt.Errorf("source page %#x not mapped", oldBase+i*PageSize)
		}
		if err := as.Map(newBase+i*PageSize, frame, flags); err != nil {
			return err
		}
	}
	return nil
}

func TestRemapPreservesPerPageFlags(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	oldBase := KernelBase + 0x200000
	newBase := KernelBase + 0x800000
	if _, err := as.MapRegion(oldBase, 1, FlagExec); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapRegion(oldBase+PageSize, 1, FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := remap(as, newBase, oldBase, 2); err != nil {
		t.Fatal(err)
	}
	_, f0, _ := as.Lookup(newBase)
	_, f1, _ := as.Lookup(newBase + PageSize)
	if f0 != FlagExec || f1 != FlagWrite {
		t.Fatalf("flags not preserved: %v %v", f0, f1)
	}
}

func TestUnmapIssuesShootdown(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x5000
	if err := as.Map(va, as.Phys().Alloc(), 0); err != nil {
		t.Fatal(err)
	}
	g0 := as.Generation()
	if _, err := as.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if as.Generation() == g0 {
		t.Fatal("unmap must bump the shootdown generation")
	}
	if as.Shootdowns() == 0 {
		t.Fatal("shootdown counter not incremented")
	}
}

func TestNonCanonicalAddressFaults(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	if _, _, err := as.Translate(MaxVA, AccessRead); err == nil {
		t.Fatal("access beyond 57-bit space should fault")
	}
	if err := as.Map(MaxVA, 0, 0); err == nil {
		t.Fatal("map beyond 57-bit space should fail")
	}
}

func TestPhysMemFreeListReuse(t *testing.T) {
	p := NewPhysMem()
	a := p.Alloc()
	p.Frame(a)[0] = 0xFF
	p.Free(a)
	b := p.Alloc()
	if b != a {
		t.Fatalf("free list not reused: got %v, want %v", b, a)
	}
	if p.Frame(b)[0] != 0 {
		t.Fatal("recycled frame not zeroed")
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d, want 1", p.Live())
	}
}

func TestTLBHitMissFlush(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x7000
	if err := as.Map(va, as.Phys().Alloc(), FlagWrite); err != nil {
		t.Fatal(err)
	}
	tlb := NewTLB(as)
	if _, hit, err := tlb.Entry(va, AccessRead); err != nil || hit {
		t.Fatalf("first access: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := tlb.Entry(va+8, AccessRead); err != nil || !hit {
		t.Fatalf("second access: hit=%v err=%v, want hit", hit, err)
	}
	// Unmapping elsewhere bumps the generation → next access flushes.
	if err := as.Map(va+PageSize, as.Phys().Alloc(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Unmap(va + PageSize); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := tlb.Entry(va, AccessRead); err != nil || hit {
		t.Fatalf("post-shootdown access: hit=%v err=%v, want miss", hit, err)
	}
	hits, misses, flushes := tlb.Stats()
	if hits != 1 || misses != 2 || flushes == 0 {
		t.Fatalf("stats = (%d,%d,%d), want (1,2,>0)", hits, misses, flushes)
	}
}

func TestTLBPermissionCheckOnHit(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x8000
	if err := as.Map(va, as.Phys().Alloc(), 0); err != nil {
		t.Fatal(err)
	}
	tlb := NewTLB(as)
	if _, _, err := tlb.Entry(va, AccessRead); err != nil {
		t.Fatal(err)
	}
	// A cached translation must still reject a write.
	if _, _, err := tlb.Entry(va, AccessWrite); err == nil {
		t.Fatal("TLB hit must not bypass write protection")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	tlb := NewTLB(as)
	tlb.cap = 4
	base := KernelBase + 0x100000
	for i := 0; i < 8; i++ {
		va := base + uint64(i)*PageSize
		if err := as.Map(va, as.Phys().Alloc(), 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tlb.Entry(va, AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	if len(tlb.entries) > 4 {
		t.Fatalf("TLB grew to %d entries, cap 4", len(tlb.entries))
	}
}

func TestMMIORouting(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	dev := &recordingMMIO{}
	base := KernelBase + 0xFEE00000
	if err := as.RegisterMMIO(base, 1, dev); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(base+0x10, 42); err != nil {
		t.Fatal(err)
	}
	if dev.lastOff != 0x10 || dev.lastVal != 42 {
		t.Fatalf("MMIO write not routed: off=%#x val=%d", dev.lastOff, dev.lastVal)
	}
	dev.readVal = 99
	v, err := as.Read64(base + 0x20)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 || dev.lastReadOff != 0x20 {
		t.Fatalf("MMIO read not routed: v=%d off=%#x", v, dev.lastReadOff)
	}
	// MMIO pages are never executable.
	if _, _, err := as.Translate(base, AccessExec); err == nil {
		t.Fatal("MMIO page must be NX")
	}
}

type recordingMMIO struct {
	lastOff, lastVal, lastReadOff, readVal uint64
}

func (m *recordingMMIO) MMIORead(off uint64) uint64 { m.lastReadOff = off; return m.readVal }
func (m *recordingMMIO) MMIOWrite(off, val uint64)  { m.lastOff, m.lastVal = off, val }

// TestQuickMapLookupConsistency property: after mapping a random set of
// distinct pages, every page translates to exactly the frame it was mapped
// to, and unmapped neighbours fault.
func TestQuickMapLookupConsistency(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(NewPhysMem())
		pages := make(map[uint64]FrameID)
		for i := 0; i < int(n%64)+1; i++ {
			va := KernelBase + uint64(rng.Intn(1<<20))*PageSize
			if _, ok := pages[va]; ok {
				continue
			}
			fr := as.Phys().Alloc()
			if err := as.Map(va, fr, FlagWrite); err != nil {
				return false
			}
			pages[va] = fr
		}
		for va, fr := range pages {
			got, _, ok := as.Lookup(va)
			if !ok || got != fr {
				return false
			}
		}
		if as.MappedPages() != len(pages) {
			return false
		}
		// Tear down everything; the space must end empty.
		for va := range pages {
			if _, err := as.Unmap(va); err != nil {
				return false
			}
		}
		return as.MappedPages() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemapAlias property: data written through any alias of a region
// is visible through every other alias.
func TestQuickRemapAlias(t *testing.T) {
	f := func(seed int64, val uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(NewPhysMem())
		base0 := KernelBase + uint64(rng.Intn(1<<18))*PageSize
		if _, err := as.MapRegion(base0, 2, FlagWrite); err != nil {
			return false
		}
		base1 := base0 + uint64(rng.Intn(1<<18)+4)*PageSize
		if err := remap(as, base1, base0, 2); err != nil {
			return false
		}
		off := uint64(rng.Intn(2*PageSize - 8))
		if err := as.Write64(base0+off, val); err != nil {
			return false
		}
		got, err := as.Read64(base1 + off)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x10000
	if err := as.Map(va, as.Phys().Alloc(), FlagWrite); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := as.Translate(va, AccessRead); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLBTranslate(b *testing.B) {
	as := NewAddressSpace(NewPhysMem())
	const va = KernelBase + 0x10000
	if err := as.Map(va, as.Phys().Alloc(), FlagWrite); err != nil {
		b.Fatal(err)
	}
	tlb := NewTLB(as)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := tlb.Entry(va, AccessRead); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameRefVersion: the one-word frame-version handle chain links
// hold must observe exactly what Entry.Version observes — writes through
// any alias of an exec-mapped frame, and frame recycling — so a stale
// linked block can never revalidate.
func TestFrameRefVersion(t *testing.T) {
	phys := NewPhysMem()
	as := NewAddressSpace(phys)
	code := uint64(KernelBase + 0x10000)
	alias := uint64(KernelBase + 0x20000)
	frames, err := as.MapRegion(code, 1, FlagExec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := as.TranslateEntry(code, AccessExec)
	if err != nil {
		t.Fatal(err)
	}
	ref := e.Ref()
	if ref.Version() != e.Version() {
		t.Fatalf("ref version %d != entry version %d", ref.Version(), e.Version())
	}
	v0 := ref.Version()
	// A write through a writable alias of the exec frame must move the
	// version the ref observes.
	if err := as.Map(alias, frames[0], FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(alias, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if ref.Version() == v0 {
		t.Fatal("alias write invisible through FrameRef")
	}
	// Recycling the frame must bump the version again: a ref recorded in
	// the frame's previous life can never validate its next one.
	v1 := ref.Version()
	if err := as.UnmapRegion(code, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := as.UnmapRegion(alias, 1, false); err != nil {
		t.Fatal(err)
	}
	if got := phys.Alloc(); got != frames[0] {
		t.Fatalf("free list did not recycle frame %d (got %d)", frames[0], got)
	}
	if ref.Version() == v1 {
		t.Fatal("frame recycling invisible through FrameRef")
	}
	if (FrameRef{}).Version() != 0 {
		t.Fatal("zero FrameRef must report version 0")
	}
}
