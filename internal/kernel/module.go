package kernel

import (
	"fmt"
	"maps"
	"sync"

	"adelie/internal/elfmod"
	"adelie/internal/mm"
)

// GOT is one global offset table instance. Re-randomizable modules carry
// four (paper §4.1): {movable, immovable} × {local, fixed}. Local GOTs
// hold addresses into the movable part (plus the encryption key) and are
// reallocated on every re-randomization; fixed GOTs hold kernel and
// immovable-part addresses and are write-protected once, forever.
type GOT struct {
	Name   string
	Base   uint64 // VA of slot 0 (for the movable part: relative VA = Base is updated on move)
	Slots  []GOTSlot
	Frames []mm.FrameID // backing frames of the GOT pages
	index  map[string]int
}

// GOTSlot is one 8-byte GOT entry.
type GOTSlot struct {
	Sym string
	Val uint64 // current contents (symbol address, or the key)
}

// slot returns the index for sym, appending a new slot if needed.
func (g *GOT) slot(sym string) int {
	if g.index == nil {
		g.index = make(map[string]int)
	}
	if i, ok := g.index[sym]; ok {
		return i
	}
	g.Slots = append(g.Slots, GOTSlot{Sym: sym})
	g.index[sym] = len(g.Slots) - 1
	return len(g.Slots) - 1
}

// SlotVA returns the VA of slot i.
func (g *GOT) SlotVA(i int) uint64 { return g.Base + uint64(i)*8 }

// Lookup returns the slot index of sym.
func (g *GOT) Lookup(sym string) (int, bool) {
	i, ok := g.index[sym]
	return i, ok
}

// pages returns how many pages the GOT occupies (at least one if any
// slots exist).
func (g *GOT) pages() int {
	if len(g.Slots) == 0 {
		return 0
	}
	return (len(g.Slots)*8 + mm.PageSize - 1) / mm.PageSize
}

// Part is one logical half of a module (paper Fig. 2b). Non-rerandomizable
// modules have a single part holding every section.
type Part struct {
	Base  uint64
	Size  uint64 // bytes, page-aligned
	Pages int

	secOff   map[int]uint64 // object section index → offset within part
	chunks   []chunk        // protection layout
	stubOff  uint64         // offset of the PLT stub area
	stubs    map[string]uint64
	GotFixed *GOT
	GotLocal *GOT

	// localGotPages is the page range [lo,hi) within the part occupied by
	// the local GOT — the pages that get fresh frames on every move.
	localGotLo, localGotHi int

	Frames []mm.FrameID
}

// chunk is a run of pages sharing protection flags.
type chunk struct {
	pageLo, pageHi int
	flags          mm.PageFlags
}

// SectionVA returns the current VA of an object section.
func (p *Part) SectionVA(sec int) (uint64, bool) {
	off, ok := p.secOff[sec]
	return p.Base + off, ok
}

// Module is a loaded module instance.
type Module struct {
	Name string
	Obj  *elfmod.Object
	k    *Kernel

	Movable   Part
	Immovable Part // zero-valued for non-rerandomizable modules

	exports map[string]uint64

	// localPtrOffsets are offsets within the movable part whose 64-bit
	// contents point into the movable part (function pointers in .data,
	// heap-exported addresses); the re-randomizer slides them by the move
	// delta (paper §6 "pointers are also adjusted when re-randomizing").
	localPtrOffsets []uint64

	keySlot int // index of the key slot in the movable local GOT, or -1
	curKey  uint64

	// Statistics (paper Fig. 4 / §4.1 effects and dmesg counters).
	Rerandomizations uint64
	GotLoadsPatched  int // mov sym@GOTPCREL → lea sym(%rip)
	CallsPatched     int // GOT/PLT call → direct call
	PltStubsBuilt    int
	PltStubsElided   int
	PagesRemapped    uint64
	GotEntriesMoved  uint64

	mu sync.Mutex
}

// Base returns the current movable-part base — the address an attacker
// must learn, and which re-randomization keeps changing.
func (m *Module) Base() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Movable.Base
}

// Key returns the current return-address encryption key (tests and the
// attack simulator use it; module code reads it through the local GOT).
func (m *Module) Key() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.curKey
}

// ContentSize returns the byte footprint before page rounding: section
// bytes plus the GOT slots and PLT stubs the loader materialized. This is
// the resolution Fig. 5a plots (tens of KB), where the GOT/PLT overhead
// of the PIC model is visible but small.
func (m *Module) ContentSize() uint64 {
	n := m.Obj.TotalSize()
	for _, p := range []*Part{&m.Movable, &m.Immovable} {
		for _, g := range []*GOT{p.GotFixed, p.GotLocal} {
			if g != nil {
				n += uint64(len(g.Slots)) * 8
			}
		}
		n += uint64(len(p.stubs)) * stubSize
	}
	return n
}

// Rerandomizable reports whether the module participates in continuous
// re-randomization.
func (m *Module) Rerandomizable() bool { return m.Obj.Rerandomizable }

// FindFunc resolves a guest VA inside the module to the name of the
// function containing it. Resolution is stable *through*
// re-randomization: a move changes only Part.Base, never a function's
// offset within its part, so a profiler sample taken in any epoch
// attributes to the same symbol. The second return is false when the VA
// is outside both parts or lands on non-function bytes (GOT and PLT
// pages, data sections with no covering symbol).
func (m *Module) FindFunc(va uint64) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range []*Part{&m.Movable, &m.Immovable} {
		if p.Size == 0 || va < p.Base || va >= p.Base+p.Size {
			continue
		}
		off := va - p.Base
		// Locate the object section containing the offset. Sections
		// within a part never overlap, so map iteration order cannot
		// change the answer.
		for sec, so := range p.secOff {
			size := uint64(len(m.Obj.Sections[sec].Data))
			if size == 0 {
				size = m.Obj.Sections[sec].Size
			}
			if off < so || off >= so+size {
				continue
			}
			inSec := off - so
			// Best-match function symbol: the greatest Offset at or
			// below the section offset whose Size (when declared)
			// covers it; offset ties break by name for determinism.
			name, bestOff, found := "", uint64(0), false
			for i := range m.Obj.Symbols {
				s := &m.Obj.Symbols[i]
				if s.Kind != elfmod.SymFunc || s.Section != sec || s.Offset > inSec {
					continue
				}
				if s.Size > 0 && inSec >= s.Offset+s.Size {
					continue
				}
				if !found || s.Offset > bestOff || (s.Offset == bestOff && s.Name < name) {
					name, bestOff, found = s.Name, s.Offset, true
				}
			}
			return name, found
		}
		return "", false
	}
	return "", false
}

// Rerandomize performs one re-randomization cycle (paper §4.2):
//
//  1. pick a fresh random base for the movable part;
//  2. build new local GOTs — contents slid by the move delta, with a new
//     encryption key — on fresh physical frames (the old mapping must
//     keep seeing the old key, or pending calls would decrypt their
//     return addresses with the wrong key);
//  3. slide movable-local pointers stored in movable data;
//  4. map the movable part at the new base: all pages alias the existing
//     frames (zero-copy) except the local-GOT pages, which get the new
//     frames;
//  5. swap the immovable part's local GOT pages to fresh frames holding
//     the new movable addresses (same VAs — wrappers keep working);
//  6. retire the old address range through SMR; it is unmapped when the
//     last pending call drains.
//
// It returns the move delta.
func (m *Module) Rerandomize() (uint64, error) {
	if !m.Obj.Rerandomizable {
		return 0, fmt.Errorf("kernel: module %s is not re-randomizable", m.Name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.k

	k.mu.Lock()
	newBase, err := k.randomRegion(m.Movable.Size, k.moduleRangeLo, k.moduleRangeHi)
	k.mu.Unlock()
	if err != nil {
		return 0, err
	}
	oldBase := m.Movable.Base
	delta := newBase - oldBase

	newKey := uint64(k.Rand.Int63())<<1 | 1 // never zero

	// (2) New movable local GOT frames with slid contents.
	mov := &m.Movable
	var newLocalFrames []mm.FrameID
	if mov.GotLocal.pages() > 0 {
		newLocalFrames = k.AS.Phys().AllocN(mov.GotLocal.pages())
		for i := range mov.GotLocal.Slots {
			s := &mov.GotLocal.Slots[i]
			if i == m.keySlot && s.Sym == elfmod.KeySymbol {
				s.Val = newKey
			} else {
				s.Val += delta
			}
			writeFrameWord(k.AS.Phys(), newLocalFrames, uint64(i)*8, s.Val)
			m.GotEntriesMoved++
		}
	}

	// (3) Slide movable-local data pointers. The data frames are shared
	// between old and new mappings, so one in-place update serves both;
	// old pending readers observing a new-mapping pointer is safe because
	// both mappings are live until the old one drains.
	for _, off := range m.localPtrOffsets {
		va := oldBase + off
		v, err := k.AS.Read64Force(va)
		if err != nil {
			return 0, fmt.Errorf("kernel: %s: sliding local pointer at +%#x: %w", m.Name, off, err)
		}
		if err := k.AS.Write64Force(va, v+delta); err != nil {
			return 0, err
		}
	}

	// (4) Map the movable part at the new base, zero-copy except the
	// local GOT pages.
	for pg := 0; pg < mov.Pages; pg++ {
		frame := mov.Frames[pg]
		if pg >= mov.localGotLo && pg < mov.localGotHi {
			frame = newLocalFrames[pg-mov.localGotLo]
		}
		flags := mov.flagsForPage(pg)
		if err := k.AS.Map(newBase+uint64(pg)*mm.PageSize, frame, flags); err != nil {
			return 0, fmt.Errorf("kernel: %s: remap: %w", m.Name, err)
		}
		m.PagesRemapped++
	}

	// (5) Immovable local GOT: fresh frames with the new movable
	// addresses, mapped at the unchanged VAs so wrapper code (and the
	// kernel's pointers to it) is untouched.
	imm := &m.Immovable
	if imm.GotLocal != nil && imm.GotLocal.pages() > 0 {
		fresh := k.AS.Phys().AllocN(imm.GotLocal.pages())
		for i := range imm.GotLocal.Slots {
			s := &imm.GotLocal.Slots[i]
			s.Val += delta
			writeFrameWord(k.AS.Phys(), fresh, uint64(i)*8, s.Val)
			m.GotEntriesMoved++
		}
		for pg := 0; pg < len(fresh); pg++ {
			va := imm.GotLocal.Base&^uint64(mm.PageMask) + uint64(pg)*mm.PageSize
			old, err := k.AS.Unmap(va)
			if err != nil {
				return 0, err
			}
			if err := k.AS.Map(va, fresh[pg], 0); err != nil {
				return 0, err
			}
			// The old frames are unreachable the instant the VA flips;
			// free them directly.
			k.AS.Phys().Free(old)
		}
		imm.GotLocal.Frames = fresh
	}

	// Retarget module bookkeeping to the new mapping.
	oldLocalFrames := make([]mm.FrameID, 0, mov.localGotHi-mov.localGotLo)
	for pg := mov.localGotLo; pg < mov.localGotHi; pg++ {
		oldLocalFrames = append(oldLocalFrames, mov.Frames[pg])
		mov.Frames[pg] = newLocalFrames[pg-mov.localGotLo]
	}
	// Retarget pending deferred-work handlers and registered interrupt
	// vectors that point into the range being moved (§3.4: the
	// re-randomizer "will only need to modify the function handler
	// address").
	k.slideWorkqueue(oldBase, mov.Size, delta)
	k.slideISRs(oldBase, mov.Size, delta)

	mov.Base = newBase
	mov.GotLocal.Base += delta
	mov.GotFixed.Base += delta
	m.keyRotate(newKey)
	m.Rerandomizations++

	oldSize := mov.Size
	pages := mov.Pages
	// (6) Delayed unmap: the old range lives until pending calls drain.
	k.SMR.Retire(func() {
		_ = k.AS.UnmapRegion(oldBase, pages, false)
		for _, f := range oldLocalFrames {
			k.AS.Phys().Free(f)
		}
		k.mu.Lock()
		k.release(oldBase, oldSize)
		k.mu.Unlock()
	})
	return delta, nil
}

func (m *Module) keyRotate(newKey uint64) { m.curKey = newKey }

// flagsForPage returns the protection flags of page pg per the part's
// chunk layout.
func (p *Part) flagsForPage(pg int) mm.PageFlags {
	for _, c := range p.chunks {
		if pg >= c.pageLo && pg < c.pageHi {
			return c.flags
		}
	}
	return 0
}

// writeFrameWord writes a 64-bit little-endian word at byte offset off
// into a run of frames.
func writeFrameWord(phys *mm.PhysMem, frames []mm.FrameID, off uint64, val uint64) {
	fr := frames[off/mm.PageSize]
	b := phys.WritableFrame(fr)
	o := off % mm.PageSize
	for i := 0; i < 8; i++ {
		b[o+uint64(i)] = byte(val >> (8 * i))
	}
}

// Unload removes the module: unmaps both parts and withdraws its exports.
// The caller must ensure no pending calls reference it (tests only; the
// paper does not unload re-randomizable modules either).
func (m *Module) Unload() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.k
	k.mu.Lock()
	for name := range m.exports {
		delete(k.symbols.own(maps.Clone), name)
	}
	delete(k.modules.own(maps.Clone), m.Name)
	k.mu.Unlock()
	for _, p := range []*Part{&m.Movable, &m.Immovable} {
		if p.Pages == 0 {
			continue
		}
		if err := k.AS.UnmapRegion(p.Base, p.Pages, true); err != nil {
			return err
		}
		k.mu.Lock()
		k.release(p.Base, p.Size)
		k.mu.Unlock()
	}
	return nil
}
