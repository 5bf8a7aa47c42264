package mm

import "encoding/binary"

// ReadBytes copies n bytes starting at va into a fresh slice, honouring
// page permissions and crossing page boundaries.
func (as *AddressSpace) ReadBytes(va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := as.copyBytes(va, out, AccessRead, false); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBytes stores b at va, honouring page permissions.
func (as *AddressSpace) WriteBytes(va uint64, b []byte) error {
	return as.copyBytes(va, b, AccessWrite, true)
}

// WriteBytesForce stores b at va ignoring write protection. It exists for
// the loader, which populates pages before write-protecting them, and for
// run-time patching of already-loaded text (paper Fig. 4); regular
// execution must use WriteBytes.
func (as *AddressSpace) WriteBytesForce(va uint64, b []byte) error {
	return as.copyBytes(va, b, AccessRead, true)
}

// copyBytes copies between b and the pages from va on, one page at a
// time, translating each for access: into b, or out of b when store is
// set (a forced store translates for AccessRead, so only a mapping is
// required). A store detaches each frame from copy-on-write sharing
// first and notes the write; the pages before a faulting one are
// written.
func (as *AddressSpace) copyBytes(va uint64, b []byte, access Access, store bool) error {
	for len(b) > 0 {
		frame, _, err := as.Translate(va, access)
		if err != nil {
			return err
		}
		off := va & PageMask
		var n int
		if store {
			n = copy(as.phys.WritableFrame(frame)[off:], b)
			as.phys.NoteWrite(frame)
		} else {
			n = copy(b, as.phys.Frame(frame)[off:])
		}
		va += uint64(n)
		b = b[n:]
	}
	return nil
}

// Read64 loads a 64-bit little-endian value. Loads from MMIO pages are
// routed to the registered device handler.
func (as *AddressSpace) Read64(va uint64) (uint64, error) {
	e, err := as.TranslateEntry(va, AccessRead)
	if err != nil {
		return 0, err
	}
	return as.Read64Entry(e, va)
}

// Read64Entry is Read64 for a va the caller has already translated to e
// for reading (a vCPU's TLB entry): it reaches the device handler of an
// MMIO page without walking the page tables again. An MMIO page with no
// registered region reads its frame bytes, as Read64 does.
func (as *AddressSpace) Read64Entry(e Entry, va uint64) (uint64, error) {
	if e.Flags&FlagMMIO != 0 {
		if h, off, ok := as.mmioFor(va); ok {
			return h.MMIORead(off), nil
		}
	}
	off := va & PageMask
	if off+8 <= PageSize {
		return binary.LittleEndian.Uint64(as.phys.Frame(e.Frame)[off : off+8]), nil
	}
	b, err := as.ReadBytes(va, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Write64 stores a 64-bit little-endian value. Stores to MMIO pages are
// routed to the registered device handler (doorbell writes, etc.).
func (as *AddressSpace) Write64(va uint64, val uint64) error {
	e, err := as.TranslateEntry(va, AccessWrite)
	if err != nil {
		return err
	}
	return as.Write64Entry(e, va, val)
}

// Write64Entry is Write64 for a va the caller has already translated to
// e for writing, permission checked: Read64Entry's store twin.
func (as *AddressSpace) Write64Entry(e Entry, va uint64, val uint64) error {
	if e.Flags&FlagMMIO != 0 {
		if h, off, ok := as.mmioFor(va); ok {
			h.MMIOWrite(off, val)
			return nil
		}
	}
	off := va & PageMask
	if off+8 <= PageSize {
		binary.LittleEndian.PutUint64(as.phys.WritableFrame(e.Frame)[off:off+8], val)
		as.phys.NoteWrite(e.Frame)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return as.WriteBytes(va, b[:])
}

// Write64Force stores a 64-bit value ignoring write protection — used by
// the loader and re-randomizer to update entries in write-protected GOTs.
func (as *AddressSpace) Write64Force(va uint64, val uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return as.WriteBytesForce(va, b[:])
}

// Read64Force loads a 64-bit value requiring only that the page is
// mapped — the device-DMA read of NVMe submission entries and NIC
// descriptors.
func (as *AddressSpace) Read64Force(va uint64) (uint64, error) {
	var b [8]byte
	if err := as.copyBytes(va, b[:], AccessRead, false); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
