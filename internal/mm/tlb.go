package mm

// TLB is a per-vCPU translation lookaside buffer. Continuous
// re-randomization forces page-table updates and therefore TLB flushes
// (paper §4.3 names this the unavoidable cost of any remapping approach),
// so the model charges a refill penalty for every miss after a shootdown.
//
// Cached entries carry the full fast-path Entry (including the frame
// data pointer), so a TLB hit resolves a load, store or fetch without
// touching the address-space lock or the frame allocator at all — the
// lock-light translation path concurrent vCPUs run on.
//
// Determinism: eviction under capacity pressure is FIFO over insertion
// order. The hit/miss sequence — and therefore every charged refill
// cycle — is a pure function of the access sequence, which is what lets
// two runs with the same seed produce bit-identical RunResults even when
// a workload's footprint exceeds DefaultTLBSize.
type TLB struct {
	as      *AddressSpace
	entries map[uint64]Entry
	fifo    []uint64 // resident page keys in insertion order (ring once full)
	head    int      // index of the oldest key in fifo
	cap     int
	gen     uint64 // address-space generation the cached entries belong to

	// l1 is a direct-mapped front cache over entries. It is purely a
	// lookup accelerator: every slot mirrors a live entries[] value and
	// is cleared when that entry is evicted or flushed, so hit/miss
	// accounting (and the cycles it charges) is identical with or
	// without it.
	l1 [l1Sets]l1Slot

	hits    uint64
	misses  uint64
	flushes uint64
}

// l1Sets is the number of direct-mapped front-cache slots (power of two).
const l1Sets = 256

// l1Slot tags a cached translation with page|1 (never zero, and never
// equal to a page-aligned address), so the zero value means empty.
type l1Slot struct {
	tag uint64
	e   Entry
}

// DefaultTLBSize approximates a modern L2 STLB (entries, not bytes).
const DefaultTLBSize = 1536

// NewTLB returns a TLB caching translations of as.
func NewTLB(as *AddressSpace) *TLB {
	return &TLB{as: as, entries: make(map[uint64]Entry), cap: DefaultTLBSize}
}

// Entry resolves va for the given access kind, consulting the cache
// first. The boolean result reports whether the translation was a hit;
// callers use it to charge a miss penalty. A write translation is always
// direct: in a fork, the store that would detach the frame anyway
// detaches it here and the page is re-cached direct for StorePage.
func (t *TLB) Entry(va uint64, access Access) (Entry, bool, error) {
	if g := t.as.Generation(); g != t.gen {
		// A shootdown occurred since we last filled: flush everything.
		t.Flush()
		t.gen = g
	}
	page := va &^ PageMask
	s := &t.l1[(page>>PageShift)&(l1Sets-1)]
	hit := s.tag == page|1
	if !hit {
		e, ok := t.entries[page]
		if hit = ok; !ok {
			t.misses++
			var err error
			if e, err = t.as.TranslateEntry(va, access); err != nil {
				return Entry{Frame: NoFrame}, false, err
			}
			if len(t.entries) >= t.cap {
				// FIFO eviction: drop the oldest resident translation and
				// reuse its ring slot. Capacity pressure, not recency, is
				// the effect the model needs — but the victim choice must
				// be deterministic.
				old := t.fifo[t.head]
				delete(t.entries, old)
				if os := &t.l1[(old>>PageShift)&(l1Sets-1)]; os.tag == old|1 {
					os.tag = 0
				}
				t.fifo[t.head] = page
				t.head++
				if t.head == len(t.fifo) {
					t.head = 0
				}
			} else {
				t.fifo = append(t.fifo, page)
			}
			t.entries[page] = e
		}
		s.tag, s.e = page|1, e
	}
	if err := checkPerm(va, s.e.Flags, access); err != nil {
		return Entry{Frame: NoFrame}, true, err // a miss was checked by TranslateEntry
	}
	if hit {
		t.hits++
	}
	if access == AccessWrite && s.e.slot != nil {
		s.e = Entry{Frame: s.e.Frame, Flags: s.e.Flags, fd: s.e.slot.private(&t.as.phys.detaches)}
		t.entries[page] = s.e
	}
	return s.e, hit, nil
}

// Current reports whether no shootdown has happened since the TLB's last
// Entry call: the precondition of the resident probes below.
func (t *TLB) Current() bool { return t.gen == t.as.Generation() }

// LoadPage is the word-granularity resident load probe: one L1 lookup
// plus MMIO and straddle screening, sized to stay under the compiler's
// inlining budget so the CPU's block execute loop pays no call per
// access. On success it returns the page's backing bytes (the caller
// reads the word at va&PageMask) and counts exactly the hit Entry's
// L1 path would. It declines (nil, false, nothing counted) whenever the
// access needs the full path — L1 miss, MMIO page, or a page-straddling
// offset — and the caller then falls back to Entry, which performs
// identical accounting: hit/miss counts, charged cycles and fault
// shapes cannot diverge between probed and unprobed execution. Reads
// never permission-fault on a mapped page (checkPerm has no read case),
// so no permission error can arise here.
//
// Callers may use the probe only when they can guarantee the
// address-space generation has not changed since their last full Entry
// call on this TLB (the CPU's block execute loop qualifies: no native,
// actor or IRQ runs between block boundaries) — it skips the generation
// re-check Entry performs.
func (t *TLB) LoadPage(va uint64) ([]byte, bool) {
	s := &t.l1[(va>>PageShift)&(l1Sets-1)]
	if s.tag != va&^PageMask|1 || va&PageMask > PageSize-8 {
		return nil, false
	}
	fd := s.e.fd
	if fd == nil {
		if s.e.slot == nil {
			return nil, false // MMIO page: only fd and slot are ever nil
		}
		fd = s.e.slot.load()
	}
	t.hits++
	return fd.data[:], true
}

// StorePage is LoadPage's store twin, with the same decline-to-Entry
// accounting contract and generation precondition. Beyond LoadPage's
// screens it declines on read-only pages (the fallback Entry call
// reproduces the permission fault verbatim), on slot entries (the
// fallback Entry call detaches the fork's frame and caches it direct),
// and on exec-mapped frames (the fallback's NoteWrite bumps the content
// version that invalidates decoded code) — each a correctness handoff,
// not an approximation, and each keeps the probe inlinable. The caller
// writes the word at va&PageMask into the returned bytes: a direct
// record is private until its machine is forked (see Entry).
func (t *TLB) StorePage(va uint64) ([]byte, bool) {
	s := &t.l1[(va>>PageShift)&(l1Sets-1)]
	if s.tag != va&^PageMask|1 || s.e.Flags&FlagWrite == 0 || va&PageMask > PageSize-8 {
		return nil, false
	}
	fd := s.e.fd
	if fd == nil || fd.exec.Load() {
		return nil, false // MMIO, slot entry, or exec-mapped: the full path
	}
	t.hits++
	return fd.data[:], true
}

// CloneFor returns a copy of this TLB resolving against as (the forked
// address space of the machine the clone belongs to). The resident set,
// FIFO insertion order and hit/miss/flush counters carry over, so the
// clone's future eviction and refill sequence — and every cycle it
// charges — matches what the template's TLB would have done: the
// fork-determinism contract depends on it. Cached entries are
// re-resolved against as so they use its COW slot indirection; the L1
// front cache starts empty (it is a pure lookup accelerator and never
// affects accounting). If a shootdown invalidated the cached set, the
// clone starts empty like the template would at its next access.
//
// A fork clones its vCPUs lazily, so as may have moved on since the
// fork. Cloning later is equivalent to cloning at the fork and running
// on: translations of resident pages change only by Unmap or Protect,
// both bump the generation, and a clone whose generation is stale
// starts empty with the template's generation, so its first Entry
// flushes and counts exactly as the earlier copy's would.
func (t *TLB) CloneFor(as *AddressSpace) *TLB {
	nt := &TLB{
		as:      as,
		entries: make(map[uint64]Entry, len(t.entries)),
		cap:     t.cap,
		gen:     t.gen,
		hits:    t.hits,
		misses:  t.misses,
		flushes: t.flushes,
	}
	if t.gen != as.Generation() || len(t.entries) == 0 {
		return nt
	}
	nt.fifo = make([]uint64, len(t.fifo))
	copy(nt.fifo, t.fifo)
	nt.head = t.head
	for page := range t.entries {
		// Generation matched, so every cached translation is still mapped;
		// AccessRead re-resolves it without a permission surprise (flags
		// come from the page table, identical to the template's).
		e, err := as.TranslateEntry(page, AccessRead)
		if err != nil {
			// Unreachable while generations match; degrade to a cold TLB.
			return &TLB{as: as, entries: make(map[uint64]Entry), cap: t.cap,
				gen: t.gen, hits: t.hits, misses: t.misses, flushes: t.flushes}
		}
		nt.entries[page] = e
	}
	return nt
}

// Flush drops all cached translations.
func (t *TLB) Flush() {
	clear(t.entries)
	t.fifo = t.fifo[:0]
	t.head = 0
	t.l1 = [l1Sets]l1Slot{}
	t.flushes++
}

// Stats returns cumulative hit/miss/flush counts.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}
