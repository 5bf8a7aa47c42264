package mm

import "encoding/binary"

// IOTLB is a device's translation cache: the DMA-side counterpart of a
// vCPU's TLB. NIC descriptor and buffer DMA and NVMe queue DMA touch the
// same few pages request after request; the cache resolves them without
// a page walk or the address-space lock. It returns the same bytes and
// the same errors as the AddressSpace force paths it mirrors
// (Read64Force, Write64Force, WriteBytesForce, ReadBytes): it is a lookup
// accelerator with no accounting of its own, so no simulated figure can
// tell whether a device used it.
//
// Slots are direct-mapped and validated against the address-space
// generation exactly as TLB.Entry validates its own: an Unmap or Protect
// drops every cached translation. Misses fill through TranslateEntry with
// AccessRead (DMA ignores write protection), so a fork caches its own
// slots, never the template's. MMIO pages are never cached: their
// accesses take the AddressSpace path's dummy-frame bytes.
//
// Writes detach exactly where PhysMem.WritableFrame would — they go
// through the machine's own slot, not the cached record — so a frame
// shared copy-on-write (a snapshot template's) is never written in
// place.
//
// An IOTLB is owned by one device and used under that device's lock. A
// fork's device starts with none: the template's slots point into
// frames the fork shares, and its own fill on first DMA resolves them.
type IOTLB struct {
	as   *AddressSpace
	gen  uint64
	sets [ioSets]l1Slot
}

// ioSets is the number of direct-mapped IOTLB slots (power of two).
const ioSets = 64

// NewIOTLB returns an empty device translation cache over as.
func NewIOTLB(as *AddressSpace) *IOTLB { return &IOTLB{as: as, gen: as.Generation()} }

// entry resolves va's page, from the cache when it holds it. s is the
// cache slot now holding the translation, nil for an MMIO page (which
// is not cached; e then still carries its frame).
func (c *IOTLB) entry(va uint64) (s *l1Slot, e Entry, err error) {
	if g := c.as.Generation(); g != c.gen {
		c.sets = [ioSets]l1Slot{}
		c.gen = g
	}
	page := va &^ PageMask
	s = &c.sets[(page>>PageShift)&(ioSets-1)]
	if s.tag == page|1 {
		return s, s.e, nil
	}
	if e, err = c.as.TranslateEntry(va, AccessRead); err != nil || e.Flags&FlagMMIO != 0 {
		return nil, e, err
	}
	s.tag, s.e = page|1, e
	return s, e, nil
}

// readable returns the bytes of va's page for reading.
func (c *IOTLB) readable(va uint64) ([]byte, error) {
	s, e, err := c.entry(va)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return c.as.phys.Frame(e.Frame), nil
	}
	return s.e.rec().data[:], nil
}

// writable returns the record of va's frame for writing, detached from
// copy-on-write sharing first (PhysMem.WritableFrame's path), and points
// the cached entry at it.
func (c *IOTLB) writable(va uint64) (*frameData, error) {
	s, e, err := c.entry(va)
	if err != nil {
		return nil, err
	}
	sl := c.as.phys.ownSlot(e.Frame)
	fd := sl.private(&c.as.phys.detaches)
	switch {
	case s == nil:
	case s.e.fd != nil:
		s.e.fd = fd
	default:
		s.e.slot = sl
	}
	return fd, nil
}

// Read64Force is AddressSpace.Read64Force through the cache.
func (c *IOTLB) Read64Force(va uint64) (uint64, error) {
	if off := va & PageMask; off+8 <= PageSize {
		b, err := c.readable(va)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[off : off+8]), nil
	}
	var b [8]byte
	if err := c.read(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// ReadBytes is AddressSpace.ReadBytes through the cache.
func (c *IOTLB) ReadBytes(va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.read(va, out); err != nil {
		return nil, err
	}
	return out, nil
}

// read fills dst from va, page by page.
func (c *IOTLB) read(va uint64, dst []byte) error {
	for len(dst) > 0 {
		b, err := c.readable(va)
		if err != nil {
			return err
		}
		n := copy(dst, b[va&PageMask:])
		va += uint64(n)
		dst = dst[n:]
	}
	return nil
}

// WriteBytesForce is AddressSpace.WriteBytesForce through the cache:
// the pages before a faulting one are written, as there.
func (c *IOTLB) WriteBytesForce(va uint64, b []byte) error {
	for len(b) > 0 {
		fd, err := c.writable(va)
		if err != nil {
			return err
		}
		n := copy(fd.data[va&PageMask:], b)
		if fd.exec.Load() {
			fd.bump()
		}
		va += uint64(n)
		b = b[n:]
	}
	return nil
}

// Write64Force is AddressSpace.Write64Force through the cache.
func (c *IOTLB) Write64Force(va uint64, val uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return c.WriteBytesForce(va, b[:])
}
