package mm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// ioFixture is an address space with a writable page pair (the second
// page is read-only, so straddles cross a permission change), an exec
// page, an MMIO region with a handler, an MMIO-flagged page with no
// region and an unmapped hole after them. Every page starts filled with
// a pattern of its own.
const (
	ioBase     = KernelBase + 0x40000
	ioData     = ioBase               // writable
	ioRO       = ioBase + PageSize    // read-only
	ioCode     = ioBase + 2*PageSize  // exec
	ioMMIO     = ioBase + 3*PageSize  // registered MMIO region
	ioBareMMIO = ioBase + 4*PageSize  // FlagMMIO, no region
	ioHole     = ioBase + 5*PageSize  // unmapped
	ioAlias    = ioBase + 8*PageSize  // second mapping of ioData's frame
	ioNonCanon = MaxVA + 3*PageSize/2 // beyond the 57-bit space
)

func ioFixture(t *testing.T) (*AddressSpace, *recordingMMIO) {
	t.Helper()
	seedDeadFrames()
	as := NewAddressSpace(NewPhysMem())
	for _, p := range []struct {
		va    uint64
		flags PageFlags
	}{{ioData, FlagWrite}, {ioRO, 0}, {ioCode, FlagExec}, {ioBareMMIO, FlagWrite | FlagMMIO}} {
		if _, err := as.MapRegion(p.va, 1, p.flags); err != nil {
			t.Fatal(err)
		}
		fill := make([]byte, PageSize)
		for i := range fill {
			fill[i] = byte(p.va>>PageShift) + byte(i)
		}
		if err := as.WriteBytesForce(p.va, fill); err != nil {
			t.Fatal(err)
		}
	}
	dev := &recordingMMIO{readVal: 0xBAD}
	if err := as.RegisterMMIO(ioMMIO, 1, dev); err != nil {
		t.Fatal(err)
	}
	f, _, _ := as.Lookup(ioData)
	if err := as.Map(ioAlias, f, FlagWrite); err != nil {
		t.Fatal(err)
	}
	return as, dev
}

// ioOp is one device access or page-table change, applied either
// through the AddressSpace force paths or through an IOTLB.
type ioOp struct {
	name string
	run  func(as *AddressSpace, c *IOTLB) (any, error) // c nil: AddressSpace path
}

func read64(va uint64) ioOp {
	return ioOp{fmt.Sprintf("Read64Force(%#x)", va), func(as *AddressSpace, c *IOTLB) (any, error) {
		if c == nil {
			return as.Read64Force(va)
		}
		return c.Read64Force(va)
	}}
}

func readBytes(va uint64, n int) ioOp {
	return ioOp{fmt.Sprintf("ReadBytes(%#x, %d)", va, n), func(as *AddressSpace, c *IOTLB) (any, error) {
		if c == nil {
			return as.ReadBytes(va, n)
		}
		return c.ReadBytes(va, n)
	}}
}

func write64(va, val uint64) ioOp {
	return ioOp{fmt.Sprintf("Write64Force(%#x)", va), func(as *AddressSpace, c *IOTLB) (any, error) {
		if c == nil {
			return nil, as.Write64Force(va, val)
		}
		return nil, c.Write64Force(va, val)
	}}
}

func writeBytes(va uint64, n int, seed byte) ioOp {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return ioOp{fmt.Sprintf("WriteBytesForce(%#x, %d)", va, n), func(as *AddressSpace, c *IOTLB) (any, error) {
		if c == nil {
			return nil, as.WriteBytesForce(va, b)
		}
		return nil, c.WriteBytesForce(va, b)
	}}
}

// mapOp changes the page tables; both sides run it on the address space.
func mapOp(name string, f func(as *AddressSpace) error) ioOp {
	return ioOp{name, func(as *AddressSpace, _ *IOTLB) (any, error) { return nil, f(as) }}
}

// seedDeadFrames puts dirty records at high, distinct content versions
// in the dead-frame pool, as a process that released other machines
// leaves it. A fixture built after it draws some of them, so a test
// that compares two fixtures' absolute versions fails on every run, not
// only when earlier tests, GC or the race detector's pool drops happen
// to leave the two fixtures different records.
func seedDeadFrames() {
	for i := range 8 {
		fd := &frameData{}
		for j := range fd.data {
			fd.data[j] = 0xDB ^ byte(i+j)
		}
		fd.ver.Store(1<<40 + uint64(i)<<20)
		fd.exec.Store(true)
		deadFrames.Put(fd)
	}
}

// ioVersions holds a fixture's frame versions as first seen: a fresh
// record's version depends on the dead records the pool held, so a
// fixture's versions compare as deltas from its own.
type ioVersions map[FrameID]uint64

// snapshot captures everything an access could have changed: every
// fixture page's bytes and content version (as a delta from base), and
// the MMIO handler.
func ioSnapshot(t *testing.T, as *AddressSpace, dev *recordingMMIO, base ioVersions) any {
	t.Helper()
	var pages [][]byte
	var vers []uint64
	for va := ioData; va < ioHole; va += PageSize {
		f, _, ok := as.Lookup(va)
		if !ok {
			pages, vers = append(pages, nil), append(vers, 0)
			continue
		}
		pages = append(pages, append([]byte(nil), as.Phys().Frame(f)...))
		v := as.Phys().FrameVersion(f)
		if _, seen := base[f]; !seen {
			base[f] = v
		}
		vers = append(vers, v-base[f])
	}
	return []any{pages, vers, *dev, as.Phys().COWDetaches()}
}

func TestIOTLBMatchesAddressSpace(t *testing.T) {
	// The same access sequence through the AddressSpace force paths and
	// through one IOTLB (kept warm across the sequence) gives the same
	// values, the same errors and the same memory, including when the
	// page tables change between two accesses.
	ops := []ioOp{
		read64(ioData + 8),
		read64(ioData + PageSize - 4), // straddles into the read-only page
		read64(ioRO + PageSize - 4),   // straddles into the exec page
		read64(ioCode + 16),
		read64(ioMMIO + 8),     // dummy frame, never the handler
		read64(ioBareMMIO + 8), // MMIO flag, no region
		read64(ioBareMMIO + PageSize - 4),
		read64(ioHole + 8),                // unmapped
		read64(ioBareMMIO + PageSize - 2), // straddles into the hole
		read64(ioNonCanon),
		readBytes(ioData+100, 3*PageSize), // three pages, the last exec
		readBytes(ioData+PageSize-1, 2),
		readBytes(ioRO+10, 4*PageSize), // runs into the hole
		readBytes(ioNonCanon, 8),
		readBytes(ioData, 0),
		write64(ioData+24, 0x1122334455667788),
		write64(ioData+PageSize-4, 0xAABBCCDDEEFF0011), // onto the read-only page
		write64(ioCode+PageSize-3, 42),                 // exec: version bump, into MMIO page
		write64(ioMMIO+8, 7),
		write64(ioBareMMIO+16, 9),
		write64(ioHole, 1),
		write64(ioNonCanon, 1),
		writeBytes(ioData+PageSize-10, 2*PageSize+20, 0x5A), // across read-only and exec
		writeBytes(ioBareMMIO+PageSize-5, 10, 0x33),         // partial: faults at the hole
		read64(ioAlias + 24),                                // the alias sees writes through ioData
		write64(ioAlias+32, 0xFEED),
		read64(ioData + 32),
		mapOp("Unmap+Map ioData to a fresh frame", func(as *AddressSpace) error {
			if _, err := as.Unmap(ioData); err != nil {
				return err
			}
			return as.Map(ioData, as.Phys().Alloc(), FlagWrite)
		}),
		read64(ioData + 24), // the fresh frame, not the cached one
		write64(ioData+40, 0x77),
		read64(ioAlias + 40), // the old frame stays untouched
		mapOp("Protect ioRO writable", func(as *AddressSpace) error { return as.Protect(ioRO, FlagWrite) }),
		write64(ioRO+8, 0x99),
		mapOp("Protect ioRO exec", func(as *AddressSpace) error { return as.Protect(ioRO, FlagExec) }),
		write64(ioRO+16, 0x98), // exec now: the version bumps
		read64(ioRO + 8),
		mapOp("Unmap ioRO", func(as *AddressSpace) error { _, err := as.Unmap(ioRO); return err }),
		read64(ioRO + 8),
		readBytes(ioData+PageSize-4, 8),
		write64(ioData+PageSize-4, 5), // the first page is written, then the fault
	}
	want, wdev := ioFixture(t)
	got, gdev := ioFixture(t)
	wbase, gbase := ioVersions{}, ioVersions{}
	ioSnapshot(t, want, wdev, wbase)
	ioSnapshot(t, got, gdev, gbase)
	c := NewIOTLB(got)
	for _, op := range ops {
		wv, werr := op.run(want, nil)
		gv, gerr := op.run(got, c)
		if !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(werr, gerr) {
			t.Fatalf("%s: AddressSpace gives (%v, %v), IOTLB (%v, %v)", op.name, wv, werr, gv, gerr)
		}
		if w, g := ioSnapshot(t, want, wdev, wbase), ioSnapshot(t, got, gdev, gbase); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: memory differs after the access", op.name)
		}
	}
	if gdev.lastReadOff != 0 || gdev.lastOff != 0 {
		t.Fatal("device DMA reached the MMIO handler")
	}
}

func TestIOTLBHitsWithoutWalk(t *testing.T) {
	// A cached page is served from its slot: with the page's PTE cleared
	// behind the cache's back (no generation bump), the IOTLB still reads
	// the cached frame. This is what makes it a cache; the generation
	// check is what keeps it honest (TestIOTLBMatchesAddressSpace).
	as, _ := ioFixture(t)
	c := NewIOTLB(as)
	v, err := c.Read64Force(ioData)
	if err != nil {
		t.Fatal(err)
	}
	ix := indexes(ioData)
	leaf := as.writablePath(&ix)[numLevels-1]
	old := leaf.ptes[ix[numLevels-1]]
	leaf.ptes[ix[numLevels-1]] = 0
	if got, err := c.Read64Force(ioData); err != nil || got != v {
		t.Fatalf("cached read = (%#x, %v), want (%#x, nil) without a walk", got, err, v)
	}
	leaf.ptes[ix[numLevels-1]] = old
	// MMIO pages are read through the page tables and never cached.
	if _, err := c.Read64Force(ioMMIO); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.sets {
		if s.tag != 0 && s.e.Flags&FlagMMIO != 0 {
			t.Fatalf("slot %d caches an MMIO page", i)
		}
	}
}

// sharedParents returns two identical parents, each forked once, with
// the first parent's cache warmed before its fork: its slot holds a
// direct pointer to a frame record the fork then shares.
func sharedParents(t *testing.T) (p1, f1, p2, f2 *AddressSpace, c *IOTLB) {
	t.Helper()
	p1, _ = ioFixture(t)
	p2, _ = ioFixture(t)
	c = NewIOTLB(p1)
	for _, va := range []uint64{ioData, ioCode} {
		if _, err := c.Read64Force(va); err != nil {
			t.Fatal(err)
		}
	}
	return p1, p1.Fork(p1.Phys().Fork()), p2, p2.Fork(p2.Phys().Fork()), c
}

func TestIOTLBWriteDetachesSharedParentFrame(t *testing.T) {
	// A parent whose frames a fork shares: a write through the parent's
	// cache detaches exactly as WritableFrame does and never writes the
	// shared record in place.
	p1, f1, p2, f2, c := sharedParents(t)
	code1, code2 := p1.Phys().FrameVersion(frameAt(t, p1, ioCode)), p2.Phys().FrameVersion(frameAt(t, p2, ioCode))
	before, err := f1.ReadBytes(ioData, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		va, val uint64
	}{{ioData + 8, 0x1111}, {ioData + 16, 0x2222}, {ioCode + 8, 0x3333}} {
		if err := c.Write64Force(w.va, w.val); err != nil {
			t.Fatal(err)
		}
		if err := p2.Write64Force(w.va, w.val); err != nil {
			t.Fatal(err)
		}
		if g, want := p1.Phys().COWDetaches(), p2.Phys().COWDetaches(); g != want {
			t.Fatalf("after the write at %#x: %d detaches through the cache, %d through WritableFrame", w.va, g, want)
		}
		if v, err := c.Read64Force(w.va); err != nil || v != w.val {
			t.Fatalf("parent cache reads (%#x, %v) after its own write, want %#x", v, err, w.val)
		}
		if v, _ := p1.Read64Force(w.va); v != w.val {
			t.Fatalf("parent reads %#x after the cache's write, want %#x", v, w.val)
		}
	}
	if p1.Phys().COWDetaches() != 2 {
		t.Fatalf("parent detached %d frames, want 2 (one per written frame)", p1.Phys().COWDetaches())
	}
	for _, f := range []*AddressSpace{f1, f2} {
		if got, _ := f.ReadBytes(ioData, 2*PageSize); !bytes.Equal(got, before) {
			t.Fatal("a parent's write through its cache reached the fork")
		}
	}
	if f1.Phys().COWDetaches() != 0 {
		t.Fatal("the parent's detach was counted on the fork")
	}
	// The detach's record comes from the dead-frame pool, so the
	// versions compare as "moved past the shared record's", not by value.
	if v1, v2 := p1.Phys().FrameVersion(frameAt(t, p1, ioCode)), p2.Phys().FrameVersion(frameAt(t, p2, ioCode)); v1 <= code1 || v2 <= code2 {
		t.Fatalf("exec frame version %d -> %d through the cache, %d -> %d through WritableFrame", code1, v1, code2, v2)
	}
}

func TestIOTLBForkWriteLeavesParent(t *testing.T) {
	// The fork's own cache fills with the fork's slots: its writes detach
	// in the fork, and the parent keeps its bytes.
	p1, f1, _, _, _ := sharedParents(t)
	want, _ := p1.Read64Force(ioData + 8)
	c := NewIOTLB(f1)
	if _, err := c.Read64Force(ioData + 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Write64Force(ioData+8, 0xF00D); err != nil {
		t.Fatal(err)
	}
	if v, _ := f1.Read64Force(ioData + 8); v != 0xF00D {
		t.Fatalf("fork reads %#x after its cache's write", v)
	}
	if v, _ := c.Read64Force(ioData + 8); v != 0xF00D {
		t.Fatalf("fork cache reads %#x after its own write", v)
	}
	if v, _ := p1.Read64Force(ioData + 8); v != want {
		t.Fatalf("parent reads %#x after the fork's write, want %#x", v, want)
	}
	if f1.Phys().COWDetaches() != 1 || p1.Phys().COWDetaches() != 0 {
		t.Fatalf("detaches: fork %d, parent %d; want 1, 0", f1.Phys().COWDetaches(), p1.Phys().COWDetaches())
	}
}

func frameAt(t *testing.T, as *AddressSpace, va uint64) FrameID {
	t.Helper()
	f, _, ok := as.Lookup(va)
	if !ok {
		t.Fatalf("%#x not mapped", va)
	}
	return f
}
