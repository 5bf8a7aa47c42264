package mm

import (
	"encoding/binary"
	"testing"
)

// tlbFixture maps n pages at base and returns a TLB with the given cap.
func tlbFixture(t *testing.T, n int, cap int) (*TLB, uint64) {
	t.Helper()
	as := NewAddressSpace(NewPhysMem())
	base := KernelBase + 0x400000
	if _, err := as.MapRegion(base, n, FlagWrite); err != nil {
		t.Fatal(err)
	}
	tlb := NewTLB(as)
	tlb.cap = cap
	return tlb, base
}

// TestTLBFIFOEvictionOrder pins the eviction policy: under capacity
// pressure the oldest inserted translation goes first, so the hit/miss
// sequence is a pure function of the access sequence.
func TestTLBFIFOEvictionOrder(t *testing.T) {
	tlb, base := tlbFixture(t, 8, 4)
	page := func(i int) uint64 { return base + uint64(i)*PageSize }
	touch := func(i int) bool {
		_, hit, err := tlb.Entry(page(i), AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	for i := 0; i < 4; i++ {
		if touch(i) {
			t.Fatalf("page %d: cold access hit", i)
		}
	}
	// Fill page 4: page 0 (oldest) must be the victim.
	if touch(4) {
		t.Fatal("page 4: cold access hit")
	}
	for i := 1; i <= 4; i++ {
		if !touch(i) {
			t.Fatalf("page %d evicted; FIFO victim should have been page 0", i)
		}
	}
	if touch(0) {
		t.Fatal("page 0 still resident; FIFO should have evicted it")
	}
	// That refill evicted page 1 (now the oldest); 2,3,4,0 are resident.
	if touch(1) {
		t.Fatal("page 1 still resident after ring rotation")
	}
	for _, i := range []int{3, 4, 0, 1} {
		if !touch(i) {
			t.Fatalf("page %d should be resident after rotation", i)
		}
	}
}

// TestTLBEvictionDeterministic replays an overflowing access pattern on
// two TLBs over the same address space and requires identical hit/miss
// accounting — the property the deterministic-clock contract needs once
// a working set exceeds capacity.
func TestTLBEvictionDeterministic(t *testing.T) {
	const pages = 64
	as := NewAddressSpace(NewPhysMem())
	base := KernelBase + 0x400000
	if _, err := as.MapRegion(base, pages, FlagWrite); err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, uint64) {
		tlb := NewTLB(as)
		tlb.cap = 16
		// A pattern with reuse across eviction boundaries: two sequential
		// sweeps plus a strided re-visit.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < pages; i++ {
				if _, _, err := tlb.Entry(base+uint64(i)*PageSize, AccessRead); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < pages; i += 3 {
				if _, _, err := tlb.Entry(base+uint64(i)*PageSize, AccessRead); err != nil {
					t.Fatal(err)
				}
			}
		}
		hits, misses, _ := tlb.Stats()
		return hits, misses
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("eviction not deterministic: run1 (hits=%d misses=%d) vs run2 (hits=%d misses=%d)", h1, m1, h2, m2)
	}
	if m1 <= pages {
		t.Fatalf("pattern did not overflow the TLB (misses=%d)", m1)
	}
}

// TestTLBFrontCacheInvalidatedByEviction guards the l1 accelerator:
// after a FIFO eviction the front cache must not keep serving the
// evicted translation as a hit.
func TestTLBFrontCacheInvalidatedByEviction(t *testing.T) {
	tlb, base := tlbFixture(t, 6, 4)
	// Warm page 0 through both the map and the l1 slot.
	for i := 0; i < 2; i++ {
		if _, _, err := tlb.Entry(base, AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow: pages 1..4 evict page 0.
	for i := 1; i <= 4; i++ {
		if _, _, err := tlb.Entry(base+uint64(i)*PageSize, AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	_, hit, err := tlb.Entry(base, AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("front cache served an evicted translation")
	}
}

// TestWordProbeRequiresResidency: the inlinable word probes serve only
// L1-resident translations and count exactly one hit per successful
// probe — never on a decline.
func TestWordProbeRequiresResidency(t *testing.T) {
	tlb, base := tlbFixture(t, 2, 4)
	if _, ok := tlb.LoadPage(base); ok {
		t.Fatal("LoadPage hit a translation that was never loaded")
	}
	if _, ok := tlb.StorePage(base); ok {
		t.Fatal("StorePage hit a translation that was never loaded")
	}
	if hits, _, _ := tlb.Stats(); hits != 0 {
		t.Fatalf("declined probes counted %d hits", hits)
	}
	if _, _, err := tlb.Entry(base, AccessRead); err != nil {
		t.Fatal(err)
	}
	hits0, _, _ := tlb.Stats()
	if _, ok := tlb.LoadPage(base); !ok {
		t.Fatal("LoadPage declined a resident translation")
	}
	if _, ok := tlb.StorePage(base); !ok {
		t.Fatal("StorePage declined a resident writable translation")
	}
	if hits, _, _ := tlb.Stats(); hits != hits0+2 {
		t.Fatalf("probe hits %d → %d, want exactly +2", hits0, hits)
	}
}

// TestWordProbeDeclinesSpecialCases: straddling offsets, read-only
// stores and exec-mapped stores must decline (nothing counted) so the
// full Entry path keeps sole ownership of fault shapes, the content
// version bump, and accounting.
func TestWordProbeDeclinesSpecialCases(t *testing.T) {
	as := NewAddressSpace(NewPhysMem())
	base := KernelBase + 0x400000
	if _, err := as.MapRegion(base, 1, FlagWrite); err != nil {
		t.Fatal(err)
	}
	roBase := base + PageSize
	if _, err := as.MapRegion(roBase, 1, 0); err != nil {
		t.Fatal(err)
	}
	// W^X holds per mapping, so the exec-marked-but-writable case needs
	// an alias: map the frame executable at one VA (which exec-marks the
	// frame itself), then map the same frame writable at another.
	execBase := base + 2*PageSize
	if _, err := as.MapRegion(execBase, 1, FlagExec); err != nil {
		t.Fatal(err)
	}
	frame, _, ok := as.Lookup(execBase)
	if !ok {
		t.Fatal("Lookup(execBase) failed")
	}
	aliasBase := base + 3*PageSize
	if err := as.Map(aliasBase, frame, FlagWrite); err != nil {
		t.Fatal(err)
	}
	tlb := NewTLB(as)
	for _, va := range []uint64{base, roBase, execBase, aliasBase} {
		if _, _, err := tlb.Entry(va, AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	hits0, _, _ := tlb.Stats()
	if _, ok := tlb.LoadPage(base + PageSize - 4); ok {
		t.Fatal("LoadPage served a page-straddling word")
	}
	if _, ok := tlb.StorePage(base + PageSize - 4); ok {
		t.Fatal("StorePage served a page-straddling word")
	}
	if _, ok := tlb.StorePage(roBase); ok {
		t.Fatal("StorePage served a read-only page")
	}
	if _, ok := tlb.StorePage(aliasBase); ok {
		t.Fatal("StorePage served a writable alias of an exec-marked frame (version bump skipped)")
	}
	if hits, _, _ := tlb.Stats(); hits != hits0 {
		t.Fatalf("declined probes counted hits: %d → %d", hits0, hits)
	}
	// An exec-page load is fine — only stores need the version bump.
	if _, ok := tlb.LoadPage(execBase); !ok {
		t.Fatal("LoadPage declined a resident exec page")
	}
}

// TestWordProbeDeclinesCOW: in a forked (copy-on-write) address space
// a read fill caches a slot entry, and the store probe must decline it —
// only the full path's write translation performs the private-copy
// detach — while the load probe keeps working through the slot
// indirection.
func TestWordProbeDeclinesCOW(t *testing.T) {
	phys := NewPhysMem()
	as := NewAddressSpace(phys)
	base := KernelBase + 0x400000
	if _, err := as.MapRegion(base, 1, FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(base, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	fork := as.Fork(phys.Fork())
	tlb := NewTLB(fork)
	if _, _, err := tlb.Entry(base, AccessRead); err != nil {
		t.Fatal(err)
	}
	if _, ok := tlb.StorePage(base); ok {
		t.Fatal("StorePage wrote through a COW-shared frame without detaching")
	}
	b, ok := tlb.LoadPage(base)
	if !ok {
		t.Fatal("LoadPage declined a resident COW translation")
	}
	if b[0] != 1 || b[7] != 8 {
		t.Fatalf("LoadPage returned wrong bytes: % x", b[:8])
	}
}

// storeWord stores v at va the way the CPU's store path does: the
// resident probe first, the full write translation when it declines. It
// reports whether the probe served the store.
func storeWord(t testing.TB, tlb *TLB, va, v uint64) bool {
	if b, ok := tlb.StorePage(va); ok {
		binary.LittleEndian.PutUint64(b[va&PageMask:], v)
		return true
	}
	e, _, err := tlb.Entry(va, AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(e.WritableBytes()[va&PageMask:], v)
	e.NoteWrite()
	return false
}

// forkStoreFixture maps n writable pages at base in a fresh address
// space and writes page i's first word as 100+i.
func forkStoreFixture(t testing.TB, n int) (*AddressSpace, uint64) {
	as := NewAddressSpace(NewPhysMem())
	base := KernelBase + 0x400000
	if _, err := as.MapRegion(base, n, FlagWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := as.Write64(base+uint64(i)*PageSize, 100+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return as, base
}

// TestForkStoreTakesFastPath: a fork's first write translation of a page
// detaches the frame once and re-caches the page direct, in the L1 slot
// and in the FIFO map, so every later store to it is served by the
// resident probe exactly as in a never-forked machine. The fork's writes
// stay invisible to the template and a sibling, and the fork's hit/miss
// counts match a never-forked TLB running the same accesses.
func TestForkStoreTakesFastPath(t *testing.T) {
	// Pages 0 and l1Sets share an L1 slot: touching one pushes the
	// other out of the front cache but not out of the FIFO map.
	const n = l1Sets + 1
	tmpl, base := forkStoreFixture(t, n)
	fork := tmpl.Fork(tmpl.Phys().Fork())
	sib := tmpl.Fork(tmpl.Phys().Fork())
	plain, _ := forkStoreFixture(t, n)
	a, b := base, base+l1Sets*PageSize

	type step struct {
		va    uint64
		write bool
	}
	seq := []step{
		{a, false}, {a, true}, {a, true}, // L1 path: read fill, detach, probe
		{b, false}, {a, true}, // FIFO-map path: a is out of L1
		{b, true}, {a, false}, {a, true}, // the map now holds a's direct entry
		{b, true}, {b, true}, // map hit on b's direct entry, then the probe
	}
	// Stores the probe must serve: an L1-resident page's, from the
	// fork's second store to it on.
	wantProbe := []bool{false, false, true, false, false, false, false, true, false, true}
	run := func(as *AddressSpace) (*TLB, []bool) {
		tlb := NewTLB(as)
		var probed []bool
		for i, s := range seq {
			if !s.write {
				if _, _, err := tlb.Entry(s.va, AccessRead); err != nil {
					t.Fatal(err)
				}
				probed = append(probed, false)
				continue
			}
			probed = append(probed, storeWord(t, tlb, s.va, 900+uint64(i)))
		}
		return tlb, probed
	}
	ftlb, fprobed := run(fork)
	for i, want := range wantProbe {
		if fprobed[i] != want {
			t.Errorf("fork step %d (%+v): store served by probe = %v, want %v", i, seq[i], fprobed[i], want)
		}
	}
	if got := fork.Phys().COWDetaches(); got != 2 {
		t.Errorf("fork detached %d frames, want 2 (one per written page)", got)
	}
	if got := tmpl.Phys().COWDetaches(); got != 0 {
		t.Errorf("template counted %d detaches, want 0", got)
	}
	ptlb, _ := run(plain)
	for _, as := range []*AddressSpace{fork, plain} {
		if got, err := as.Read64(a); err != nil || got != 907 {
			t.Errorf("page a reads %d, %v after the stores, want 907", got, err)
		}
		if got, err := as.Read64(b); err != nil || got != 909 {
			t.Errorf("page b reads %d, %v after the stores, want 909", got, err)
		}
	}
	for name, as := range map[string]*AddressSpace{"template": tmpl, "sibling": sib} {
		if got, err := as.Read64(a); err != nil || got != 100 {
			t.Errorf("%s page a reads %d, %v; the fork's store leaked", name, got, err)
		}
		if got, err := as.Read64(b); err != nil || got != 100+l1Sets {
			t.Errorf("%s page b reads %d, %v; the fork's store leaked", name, got, err)
		}
	}
	fh, fm, ff := ftlb.Stats()
	ph, pm, pf := ptlb.Stats()
	if fh != ph || fm != pm || ff != pf {
		t.Errorf("fork TLB counts hits/misses/flushes %d/%d/%d, never-forked %d/%d/%d", fh, fm, ff, ph, pm, pf)
	}
	sib.Phys().Release()
	fork.Phys().Release()
}

// BenchmarkForkStore: stores to pages a fork already owns cost the same
// as in a never-forked machine — the probe serves both.
func BenchmarkForkStore(b *testing.B) {
	const n = 8
	for _, forked := range []bool{false, true} {
		name := "never-forked"
		if forked {
			name = "fork"
		}
		b.Run(name, func(b *testing.B) {
			as, base := forkStoreFixture(b, n)
			if forked {
				as = as.Fork(as.Phys().Fork())
			}
			tlb := NewTLB(as)
			for i := 0; i < n; i++ {
				storeWord(b, tlb, base+uint64(i)*PageSize, 0) // detach in the fork
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				storeWord(b, tlb, base+uint64(i%n)*PageSize+8, uint64(i))
			}
		})
	}
}
