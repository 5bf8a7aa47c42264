package kernel

import (
	"fmt"
	"maps"

	"adelie/internal/elfmod"
	"adelie/internal/isa"
	"adelie/internal/mm"
	"adelie/internal/obs"
)

// stubSize is the bytes reserved per PLT stub:
// mov slot(%rip), %rax (6) + push %rax (2) + nop nop (2) + ret (1) = 11,
// rounded for alignment.
const stubSize = 16

// partID distinguishes the two module halves during loading.
type partID int

const (
	partMovable partID = iota
	partImmovable
)

// Load links a relocatable object into the kernel's address space,
// performing Adelie's loader duties (paper §4.1–4.2): section placement,
// GOT construction (four tables for re-randomizable modules), PLT stub
// creation or elision, run-time patching of local accesses (Fig. 4),
// relocation resolution, GOT write-protection and symbol export.
func (k *Kernel) Load(obj *elfmod.Object) (*Module, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	k.mu.Lock()
	if _, dup := k.modules.v[obj.Name]; dup {
		k.mu.Unlock()
		return nil, fmt.Errorf("kernel: module %q already loaded", obj.Name)
	}
	k.mu.Unlock()
	if !obj.PIC && k.Cfg.KASLR == KASLRFull64 {
		return nil, fmt.Errorf("kernel: non-PIC module %q cannot load under full 64-bit KASLR", obj.Name)
	}
	if obj.Rerandomizable && !obj.PIC {
		return nil, fmt.Errorf("kernel: re-randomizable module %q must be PIC", obj.Name)
	}

	m := &Module{Name: obj.Name, Obj: obj, k: k, exports: map[string]uint64{}, keySlot: -1}
	ld := &loader{k: k, m: m, obj: obj}
	if err := ld.run(); err != nil {
		// Best-effort rollback of any mapped regions.
		for _, p := range []*Part{&m.Movable, &m.Immovable} {
			if p.Pages > 0 {
				_ = k.AS.UnmapRegion(p.Base, p.Pages, true)
				k.mu.Lock()
				k.release(p.Base, p.Size)
				k.mu.Unlock()
			}
		}
		return nil, err
	}
	k.mu.Lock()
	k.modules.own(maps.Clone)[obj.Name] = m
	k.mu.Unlock()
	obs.Default.Counter("adelie_kernel_modules_loaded_total").Inc()
	return m, nil
}

type loader struct {
	k   *Kernel
	m   *Module
	obj *elfmod.Object
}

// partOf returns which part a section belongs to.
func (ld *loader) partOf(sec int) partID {
	if !ld.obj.Rerandomizable {
		return partMovable // single-part module
	}
	if ld.obj.Sections[sec].Kind.Movable() {
		return partMovable
	}
	return partImmovable
}

func (ld *loader) part(id partID) *Part {
	if id == partMovable {
		return &ld.m.Movable
	}
	return &ld.m.Immovable
}

// symLocation returns the part and definedness of a symbol. Kernel imports
// and the key pseudo-symbol report defined=false.
func (ld *loader) symLocation(symIdx int) (id partID, defined bool) {
	s := &ld.obj.Symbols[symIdx]
	if s.IsUndefined() {
		return 0, false
	}
	return ld.partOf(s.Section), true
}

func (ld *loader) run() error {
	if err := ld.plan(); err != nil {
		return err
	}
	if err := ld.layout(partMovable); err != nil {
		return err
	}
	if ld.obj.Rerandomizable {
		if err := ld.layout(partImmovable); err != nil {
			return err
		}
	}
	if err := ld.populateSections(); err != nil {
		return err
	}
	if err := ld.fillGOTs(); err != nil {
		return err
	}
	if err := ld.writeStubs(); err != nil {
		return err
	}
	if err := ld.applyRelocs(); err != nil {
		return err
	}
	if err := ld.protect(); err != nil {
		return err
	}
	return ld.export()
}

// plan scans relocations to size the GOTs and PLT stub areas before any
// layout decisions are made.
func (ld *loader) plan() error {
	m := ld.m
	m.Movable.GotFixed = &GOT{Name: "mov.fixed"}
	m.Movable.GotLocal = &GOT{Name: "mov.local"}
	m.Movable.stubs = map[string]uint64{}
	if ld.obj.Rerandomizable {
		m.Immovable.GotFixed = &GOT{Name: "imm.fixed"}
		m.Immovable.GotLocal = &GOT{Name: "imm.local"}
		m.Immovable.stubs = map[string]uint64{}
	}

	for _, r := range ld.obj.Relocs {
		caller := ld.partOf(r.Section)
		sym := &ld.obj.Symbols[r.Symbol]
		switch r.Type {
		case elfmod.RelGOTPCREL:
			if sym.Name == elfmod.KeySymbol {
				// The key always lives in the movable local GOT; wrappers
				// never touch it.
				if caller != partMovable {
					return fmt.Errorf("kernel: %s: key access from immovable code", ld.obj.Name)
				}
				m.keySlot = ld.part(caller).GotLocal.slot(elfmod.KeySymbol)
				continue
			}
			loc, defined := ld.symLocation(r.Symbol)
			if defined && loc == caller && !ld.k.Cfg.DisableFig4Patching {
				continue // will be patched to lea/direct — no slot (Fig. 4)
			}
			ld.chooseGOT(caller, r.Symbol).slot(sym.Name)
		case elfmod.RelPLT32:
			loc, defined := ld.symLocation(r.Symbol)
			if defined && loc == caller && !ld.k.Cfg.DisableFig4Patching {
				continue // stub elided: direct call
			}
			// Stub needed: reserve its GOT slot and stub space.
			ld.chooseGOT(caller, r.Symbol).slot(sym.Name)
			p := ld.part(caller)
			if _, ok := p.stubs[sym.Name]; !ok {
				p.stubs[sym.Name] = uint64(len(p.stubs)) // ordinal; VA later
				m.PltStubsBuilt++
			}
		}
	}
	return nil
}

// chooseGOT routes a symbol to one of the caller part's two GOTs: local
// if the target moves with the module, fixed otherwise (kernel imports,
// immovable-part symbols).
func (ld *loader) chooseGOT(caller partID, symIdx int) *GOT {
	p := ld.part(caller)
	loc, defined := ld.symLocation(symIdx)
	if defined && loc == partMovable && ld.obj.Rerandomizable {
		return p.GotLocal
	}
	if !ld.obj.Rerandomizable {
		// Single-part modules keep one logical GOT; everything is "fixed"
		// because nothing moves after load.
		return p.GotFixed
	}
	return p.GotFixed
}

// layout assigns offsets to sections, stub area and GOTs within a part,
// allocates its region and maps it writable for population.
func (ld *loader) layout(id partID) error {
	p := ld.part(id)
	p.secOff = map[int]uint64{}
	var off uint64

	pageAlign := func() { off = (off + mm.PageMask) &^ mm.PageMask }
	pageOf := func(b uint64) int { return int(b / mm.PageSize) }

	// Executable chunk: code sections, then PLT stubs.
	execStart := off
	for i := range ld.obj.Sections {
		s := &ld.obj.Sections[i]
		if !s.Kind.Executable() || ld.partOf(i) != id {
			continue
		}
		off = (off + 15) &^ 15
		p.secOff[i] = off
		off += s.Size
	}
	off = (off + 15) &^ 15
	p.stubOff = off
	off += uint64(len(p.stubs)) * stubSize
	pageAlign()
	execEnd := off

	// Read-only data chunk.
	roStart := off
	for i := range ld.obj.Sections {
		s := &ld.obj.Sections[i]
		if s.Kind != elfmod.SecROData || ld.partOf(i) != id {
			continue
		}
		off = (off + 7) &^ 7
		p.secOff[i] = off
		off += s.Size
	}
	pageAlign()
	roEnd := off

	// Writable data chunk (.data then .bss).
	rwStart := off
	for i := range ld.obj.Sections {
		s := &ld.obj.Sections[i]
		if !s.Kind.Writable() || ld.partOf(i) != id {
			continue
		}
		off = (off + 7) &^ 7
		p.secOff[i] = off
		off += s.Size
	}
	pageAlign()
	rwEnd := off

	// Fixed GOT pages, then local GOT pages (page-granular so each can be
	// protected and — for the local one — remapped independently).
	fixedGotStart := off
	off += uint64(p.GotFixed.pages()) * mm.PageSize
	localGotStart := off
	off += uint64(p.GotLocal.pages()) * mm.PageSize
	if off == 0 {
		off = mm.PageSize // degenerate empty part: keep one page
	}
	pageAlign()

	p.Size = off
	p.Pages = int(off / mm.PageSize)
	p.localGotLo = pageOf(localGotStart)
	p.localGotHi = p.localGotLo + p.GotLocal.pages()

	p.chunks = []chunk{
		{pageOf(execStart), pageOf(execEnd), mm.FlagExec},
		{pageOf(roStart), pageOf(roEnd), 0},
		{pageOf(rwStart), pageOf(rwEnd), mm.FlagWrite},
		{pageOf(fixedGotStart), p.localGotLo, 0},
		{p.localGotLo, p.localGotHi, 0},
	}

	// Place the part. Non-PIC modules must stay within rel32 reach of the
	// kernel image, which the vanilla window guarantees.
	k := ld.k
	k.mu.Lock()
	base, err := k.randomRegion(p.Size, k.moduleRangeLo, k.moduleRangeHi)
	k.mu.Unlock()
	if err != nil {
		return err
	}
	p.Base = base
	frames, err := k.AS.MapRegion(base, p.Pages, mm.FlagWrite)
	if err != nil {
		return err
	}
	p.Frames = frames
	p.GotFixed.Base = base + fixedGotStart
	p.GotLocal.Base = base + localGotStart
	return nil
}

// populateSections copies section bytes into the mapped regions.
func (ld *loader) populateSections() error {
	for i := range ld.obj.Sections {
		s := &ld.obj.Sections[i]
		if s.Kind == elfmod.SecBSS || len(s.Data) == 0 {
			continue
		}
		p := ld.part(ld.partOf(i))
		va := p.Base + p.secOff[i]
		if err := ld.k.AS.WriteBytesForce(va, s.Data); err != nil {
			return fmt.Errorf("kernel: %s: populating %v: %w", ld.obj.Name, s.Kind, err)
		}
	}
	return nil
}

// symVA resolves a defined module symbol or a kernel export to its VA.
func (ld *loader) symVA(symIdx int) (uint64, error) {
	s := &ld.obj.Symbols[symIdx]
	if s.Name == elfmod.KeySymbol {
		return 0, fmt.Errorf("kernel: %s: %s has no address (GOT-slot value only)", ld.obj.Name, s.Name)
	}
	if !s.IsUndefined() {
		p := ld.part(ld.partOf(s.Section))
		return p.Base + p.secOff[s.Section] + s.Offset, nil
	}
	if va, ok := ld.k.Symbol(s.Name); ok {
		return va, nil
	}
	return 0, fmt.Errorf("kernel: %s: unresolved symbol %q (U)", ld.obj.Name, s.Name)
}

// fillGOTs resolves every GOT slot's contents and writes the tables.
func (ld *loader) fillGOTs() error {
	m := ld.m
	key := uint64(ld.k.Rand.Int63())<<1 | 1
	m.curKey = key
	parts := []*Part{&m.Movable}
	if ld.obj.Rerandomizable {
		parts = append(parts, &m.Immovable)
	}
	for _, p := range parts {
		for _, g := range []*GOT{p.GotFixed, p.GotLocal} {
			if g == nil {
				continue
			}
			// Record backing frames for the GOT pages.
			for pg := 0; pg < g.pages(); pg++ {
				idx := int((g.Base-p.Base)/mm.PageSize) + pg
				g.Frames = append(g.Frames, p.Frames[idx])
			}
			for i := range g.Slots {
				s := &g.Slots[i]
				if s.Sym == elfmod.KeySymbol {
					s.Val = key
				} else {
					idx := ld.obj.SymbolRef(s.Sym)
					va, err := ld.symVA(idx)
					if err != nil {
						return err
					}
					s.Val = va
				}
				if err := ld.k.AS.Write64Force(g.SlotVA(i), s.Val); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writeStubs materializes PLT stubs: mov slot(%rip), %rax ; push %rax ;
// nop ; nop ; ret — Linux's JMP_NOSPEC construct (paper §4.1, footnote on
// %rax being the one safe volatile register).
func (ld *loader) writeStubs() error {
	m := ld.m
	parts := []*Part{&m.Movable}
	if ld.obj.Rerandomizable {
		parts = append(parts, &m.Immovable)
	}
	for pi, p := range parts {
		for sym, ordinal := range p.stubs {
			stubVA := p.Base + p.stubOff + ordinal*stubSize
			g := ld.chooseGOT(partID(pi), ld.obj.SymbolRef(sym))
			si, ok := g.Lookup(sym)
			if !ok {
				return fmt.Errorf("kernel: %s: stub for %q has no GOT slot", m.Name, sym)
			}
			slotVA := g.SlotVA(si)
			var code []byte
			// mov slot(%rip), %rax — disp relative to next RIP (stubVA+6).
			disp := int64(slotVA) - int64(stubVA+6)
			if disp < -1<<31 || disp >= 1<<31 {
				return fmt.Errorf("kernel: %s: stub GOT slot out of rel32 range", m.Name)
			}
			code = isa.Inst{Op: isa.OpLDRIP, R1: isa.RAX, Disp: int32(disp)}.Append(code)
			code = isa.Inst{Op: isa.OpPUSH, R1: isa.RAX}.Append(code)
			code = isa.Inst{Op: isa.OpNOP}.Append(code)
			code = isa.Inst{Op: isa.OpNOP}.Append(code)
			code = isa.Inst{Op: isa.OpRET}.Append(code)
			if err := ld.k.AS.WriteBytesForce(stubVA, code); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyRelocs patches every relocation site, performing the Fig.-4
// optimizations where symbol locality allows.
func (ld *loader) applyRelocs() error {
	m := ld.m
	for _, r := range ld.obj.Relocs {
		caller := ld.partOf(r.Section)
		p := ld.part(caller)
		P := p.Base + p.secOff[r.Section] + r.Offset
		sym := &ld.obj.Symbols[r.Symbol]

		switch r.Type {
		case elfmod.RelAbs64:
			S, err := ld.symVA(r.Symbol)
			if err != nil {
				return err
			}
			if err := ld.k.AS.Write64Force(P, S+uint64(r.Addend)); err != nil {
				return err
			}
			// Movable-targeting pointers in movable data are slid on each
			// re-randomization.
			loc, defined := ld.symLocation(r.Symbol)
			if ld.obj.Rerandomizable && defined && loc == partMovable {
				if caller != partMovable {
					return fmt.Errorf("kernel: %s: immovable data holds raw movable address of %q; export a wrapper instead", m.Name, sym.Name)
				}
				m.localPtrOffsets = append(m.localPtrOffsets, P-p.Base)
			}

		case elfmod.RelPC32:
			S, err := ld.symVA(r.Symbol)
			if err != nil {
				return err
			}
			loc, defined := ld.symLocation(r.Symbol)
			if ld.obj.Rerandomizable && defined && loc != caller {
				return fmt.Errorf("kernel: %s: rel32 reference crosses movable/immovable boundary (%q)", m.Name, sym.Name)
			}
			if err := ld.writePC32(P, S, r.Addend, sym.Name); err != nil {
				return err
			}

		case elfmod.RelGOTPCREL:
			if sym.Name == elfmod.KeySymbol {
				g := m.Movable.GotLocal
				si, _ := g.Lookup(elfmod.KeySymbol)
				if err := ld.writePC32(P, g.SlotVA(si), r.Addend, sym.Name); err != nil {
					return err
				}
				continue
			}
			loc, defined := ld.symLocation(r.Symbol)
			if defined && loc == caller && !ld.k.Cfg.DisableFig4Patching {
				// Fig. 4: local symbol — patch the instruction itself.
				S, err := ld.symVA(r.Symbol)
				if err != nil {
					return err
				}
				if err := ld.patchLocalGotAccess(P, S, r.Addend, m); err != nil {
					return err
				}
				continue
			}
			g := ld.chooseGOT(caller, r.Symbol)
			si, ok := g.Lookup(sym.Name)
			if !ok {
				return fmt.Errorf("kernel: %s: missing GOT slot for %q", m.Name, sym.Name)
			}
			if err := ld.writePC32(P, g.SlotVA(si), r.Addend, sym.Name); err != nil {
				return err
			}

		case elfmod.RelPLT32:
			loc, defined := ld.symLocation(r.Symbol)
			if defined && loc == caller && !ld.k.Cfg.DisableFig4Patching {
				// Stub elided: direct call (Fig. 4 "With PLT", local).
				S, err := ld.symVA(r.Symbol)
				if err != nil {
					return err
				}
				if err := ld.writePC32(P, S, r.Addend, sym.Name); err != nil {
					return err
				}
				m.CallsPatched++
				m.PltStubsElided++
				continue
			}
			ordinal, ok := p.stubs[sym.Name]
			if !ok {
				return fmt.Errorf("kernel: %s: missing PLT stub for %q", m.Name, sym.Name)
			}
			stubVA := p.Base + p.stubOff + ordinal*stubSize
			if err := ld.writePC32(P, stubVA, r.Addend, sym.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// patchLocalGotAccess rewrites a GOT-indirect instruction whose target
// turned out to be local (paper Fig. 4):
//
//	call/jmp *foo@GOTPCREL(%rip) → call/jmp foo
//	mov foo@GOTPCREL(%rip), %R  → lea foo(%rip), %R
//
// P is the VA of the 32-bit displacement field.
func (ld *loader) patchLocalGotAccess(P, S uint64, addend int64, m *Module) error {
	as := ld.k.AS
	// The opcode byte sits at P-1 for the call/jmp forms and P-2 for the
	// register-load form (whose P-1 byte is a register number < 16 and
	// therefore cannot be confused with the 0xFB/0xFD opcodes).
	b1, err := as.ReadBytes(P-1, 1)
	if err != nil {
		return err
	}
	switch isa.Op(b1[0]) {
	case isa.OpCALLM:
		if err := as.WriteBytesForce(P-1, []byte{byte(isa.OpCALL)}); err != nil {
			return err
		}
		m.CallsPatched++
	case isa.OpJMPM:
		if err := as.WriteBytesForce(P-1, []byte{byte(isa.OpJMP)}); err != nil {
			return err
		}
		m.CallsPatched++
	default:
		b2, err := as.ReadBytes(P-2, 1)
		if err != nil {
			return err
		}
		if isa.Op(b2[0]) != isa.OpLDRIP {
			return fmt.Errorf("kernel: %s: GOTPCREL relocation on unrecognized instruction (bytes %#x %#x)", m.Name, b2[0], b1[0])
		}
		if err := as.WriteBytesForce(P-2, []byte{byte(isa.OpLEARIP)}); err != nil {
			return err
		}
		m.GotLoadsPatched++
	}
	return ld.writePC32(P, S, addend, "(local)")
}

// writePC32 stores S+A-P into the 32-bit field at P, range-checked. For
// absolute-model modules this check is what enforces the ±2 GB placement
// constraint of vanilla KASLR.
func (ld *loader) writePC32(P, S uint64, addend int64, sym string) error {
	v := int64(S) + addend - int64(P)
	if v < -1<<31 || v >= 1<<31 {
		return fmt.Errorf("kernel: %s: relocation against %q out of rel32 range (%d)", ld.obj.Name, sym, v)
	}
	var b [4]byte
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	return ld.k.AS.WriteBytesForce(P, b[:])
}

// protect applies the final page permissions: text executable, read-only
// data and both GOTs write-protected (paper §4.1: "We write-protect pages
// with GOT/PLT entries after initialization").
func (ld *loader) protect() error {
	m := ld.m
	parts := []*Part{&m.Movable}
	if ld.obj.Rerandomizable {
		parts = append(parts, &m.Immovable)
	}
	for _, p := range parts {
		for _, c := range p.chunks {
			for pg := c.pageLo; pg < c.pageHi; pg++ {
				if err := ld.k.AS.Protect(p.Base+uint64(pg)*mm.PageSize, c.flags); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// export publishes the module's global symbols. Re-randomizable modules
// export only immovable-part symbols (wrappers, read-only tables): the
// kernel must never hold a raw movable address.
func (ld *loader) export() error {
	m := ld.m
	for i := range ld.obj.Symbols {
		s := &ld.obj.Symbols[i]
		if s.IsUndefined() || s.Bind != elfmod.BindGlobal {
			continue
		}
		if ld.obj.Rerandomizable && ld.partOf(s.Section) == partMovable {
			return fmt.Errorf("kernel: %s: exported symbol %q lives in the movable part; wrap it or make it immovable", m.Name, s.Name)
		}
		va, err := ld.symVA(i)
		if err != nil {
			return err
		}
		if err := ld.k.ExportSymbol(s.Name, va); err != nil {
			return err
		}
		m.exports[s.Name] = va
	}
	return nil
}
