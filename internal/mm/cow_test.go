package mm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// cowPair builds a parent address space with one writable+one exec page
// of recognizable content, then forks it. Returns parent AS, fork AS.
func cowPair(t *testing.T) (*AddressSpace, *AddressSpace) {
	t.Helper()
	phys := NewPhysMem()
	as := NewAddressSpace(phys)
	const dataVA = KernelBase
	const codeVA = KernelBase + PageSize
	if _, err := as.MapRegion(dataVA, 1, FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapRegion(codeVA, 1, FlagExec); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(dataVA, []byte("template-data")); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytesForce(codeVA, []byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatal(err)
	}
	return as, as.Fork(phys.Fork())
}

func TestCOWWriteAfterForkIsolation(t *testing.T) {
	parent, fork := cowPair(t)
	const dataVA = KernelBase

	// Before any write the fork reads the template's bytes via shared frames.
	if got, _ := fork.ReadBytes(dataVA, 13); string(got) != "template-data" {
		t.Fatalf("fork reads %q, want template-data", got)
	}
	if sharedFrames(parent.Phys()) == 0 {
		t.Fatal("no frames shared after fork")
	}

	// Writing in the fork must not leak into the parent.
	if err := fork.WriteBytes(dataVA, []byte("forked!")); err != nil {
		t.Fatal(err)
	}
	if got, _ := fork.ReadBytes(dataVA, 7); string(got) != "forked!" {
		t.Fatalf("fork reads %q after its own write", got)
	}
	if got, _ := parent.ReadBytes(dataVA, 13); string(got) != "template-data" {
		t.Fatalf("parent corrupted by fork write: %q", got)
	}

	// And vice versa: a second fork sees the template bytes, not the
	// sibling's.
	sibling := parent.Fork(parent.Phys().Fork())
	if got, _ := sibling.ReadBytes(dataVA, 13); string(got) != "template-data" {
		t.Fatalf("sibling reads %q, want template bytes", got)
	}
	sibling.Phys().Release()
	fork.Phys().Release()
}

func TestCOWVersionBumpInvalidatesCachedCode(t *testing.T) {
	_, fork := cowPair(t)
	const codeVA = KernelBase + PageSize

	// Simulate what a superblock chain link holds: a translation Entry and
	// its FrameRef captured before the write.
	e, err := fork.TranslateEntry(codeVA, AccessExec)
	if err != nil {
		t.Fatal(err)
	}
	ref := e.Ref()
	verBefore := ref.Version()
	window := append([]byte(nil), e.CodeWindow(0)[:3]...)
	if !bytes.Equal(window, []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatalf("cached code window = %x", window)
	}

	// COW write to the exec frame in the fork (loader-style forced write).
	if err := fork.WriteBytesForce(codeVA, []byte{0x11}); err != nil {
		t.Fatal(err)
	}

	// The cached ref must observe a version bump — that is what frees the
	// decode/superblock caches from explicit invalidation — and the cached
	// Entry must resolve to the new private bytes, not the shared record.
	if ref.Version() <= verBefore {
		t.Fatalf("version not bumped by COW write: %d -> %d", verBefore, ref.Version())
	}
	if e.Version() <= verBefore {
		t.Fatal("cached entry still validates against pre-COW version")
	}
	if got := e.Bytes()[0]; got != 0x11 {
		t.Fatalf("cached entry reads stale byte %#x after COW", got)
	}
}

func TestCOWParentUnaffectedByForkCodeWrite(t *testing.T) {
	parent, fork := cowPair(t)
	const codeVA = KernelBase + PageSize
	pv := parent.Phys().FrameVersion(1) // frame 1 backs the code page
	if err := fork.WriteBytesForce(codeVA, []byte{0x99}); err != nil {
		t.Fatal(err)
	}
	if got, _ := parent.ReadBytes(codeVA, 1); got[0] != 0xAA {
		t.Fatalf("parent code byte changed to %#x", got[0])
	}
	if parent.Phys().FrameVersion(1) != pv {
		t.Fatal("parent frame version bumped by fork's COW write")
	}
	if fork.Phys().FrameVersion(1) <= pv {
		t.Fatal("fork frame version not past the shared version")
	}
}

func TestCOWConcurrentForks(t *testing.T) {
	phys := NewPhysMem()
	as := NewAddressSpace(phys)
	const base = KernelBase
	const npages = 8
	if _, err := as.MapRegion(base, npages, FlagWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < npages; i++ {
		if err := as.Write64(base+uint64(i)*PageSize, 0xC0FFEE); err != nil {
			t.Fatal(err)
		}
	}

	const forks = 8
	var wg sync.WaitGroup
	errs := make([]error, forks)
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			f := as.Fork(phys.Fork())
			for p := 0; p < npages; p++ {
				va := base + uint64(p)*PageSize
				if err := f.Write64(va, uint64(n)); err != nil {
					errs[n] = err
					return
				}
				got, err := f.Read64(va)
				if err != nil {
					errs[n] = err
					return
				}
				if got != uint64(n) {
					t.Errorf("fork %d reads %#x", n, got)
					return
				}
			}
			f.Phys().Release()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// All forks released: the template owns every frame privately again.
	if n := sharedFrames(phys); n != 0 {
		t.Fatalf("%d frames still shared after all forks released", n)
	}
	for i := 0; i < npages; i++ {
		got, err := as.Read64(base + uint64(i)*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0xC0FFEE {
			t.Fatalf("template page %d corrupted: %#x", i, got)
		}
	}
}

func TestCOWReleaseRefcounts(t *testing.T) {
	phys := NewPhysMem()
	as := NewAddressSpace(phys)
	if _, err := as.MapRegion(KernelBase, 4, FlagWrite); err != nil {
		t.Fatal(err)
	}

	fp := phys.Fork()
	fork := as.Fork(fp)

	// The fork COWs one page: that private record dies with the fork; the
	// other three records survive in the template.
	if err := fork.Write64(KernelBase, 1); err != nil {
		t.Fatal(err)
	}
	if dead := fp.Release(); dead != 1 {
		t.Fatalf("fork release freed %d records, want 1 (its private COW copy)", dead)
	}
	if n := sharedFrames(phys); n != 0 {
		t.Fatalf("%d frames still shared after fork release", n)
	}

	// Releasing the template last frees everything it owns.
	if dead := phys.Release(); dead != 4 {
		t.Fatalf("template release freed %d records, want 4", dead)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	phys.Release()
}

func TestCOWAllocRecycleDetaches(t *testing.T) {
	// Recycling a freed frame that is still shared with a fork must detach,
	// not zero the shared record in place.
	phys := NewPhysMem()
	as := NewAddressSpace(phys)
	if _, err := as.MapRegion(KernelBase, 1, FlagWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(KernelBase, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	fp := phys.Fork()
	fork := as.Fork(fp)

	// Template frees and re-allocates the frame (recycle path).
	if err := as.UnmapRegion(KernelBase, 1, true); err != nil {
		t.Fatal(err)
	}
	id := phys.Alloc()
	if got := phys.Frame(id)[0]; got != 0 {
		t.Fatalf("recycled frame not zeroed: %#x", got)
	}
	// The fork still reads the pre-fork contents.
	got, err := fork.Read64(KernelBase)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xDEAD {
		t.Fatalf("fork lost shared contents on template recycle: %#x", got)
	}
	fp.Release()
}

// Page tables are shared copy-on-write: Fork hands the clone the
// parent's tree, and whichever side writes first copies the tables on
// its path. These tests pin that a write on one side is never visible on
// the other.

// mapping is one Lookup result.
type mapping struct {
	frame FrameID
	flags PageFlags
	ok    bool
}

// lookupAll resolves every va through as.
func lookupAll(as *AddressSpace, vas []uint64) []mapping {
	out := make([]mapping, len(vas))
	for i, va := range vas {
		f, fl, ok := as.Lookup(va)
		out[i] = mapping{f, fl, ok}
	}
	return out
}

func sameMappings(t *testing.T, who string, want, got []mapping, vas []uint64) {
	t.Helper()
	for i := range vas {
		if want[i] != got[i] {
			t.Errorf("%s: va %#x maps %+v, want %+v", who, vas[i], got[i], want[i])
		}
	}
}

// ptVAs are three mapped pages (two neighbours and one in a distant
// subtree) plus one unmapped page every test below writes into.
var ptVAs = []uint64{KernelBase, KernelBase + PageSize, KernelBase + 1<<40, KernelBase + 2*PageSize}

// ptParent maps ptVAs[0] writable, ptVAs[1] executable and ptVAs[2]
// writable.
func ptParent(t *testing.T) *AddressSpace {
	t.Helper()
	as := NewAddressSpace(NewPhysMem())
	for i, fl := range []PageFlags{FlagWrite, FlagExec, FlagWrite} {
		if _, err := as.MapRegion(ptVAs[i], 1, fl); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// scribble maps ptVAs[3], unmaps ptVAs[0] and makes ptVAs[1] read-only.
func scribble(t *testing.T, as *AddressSpace) {
	t.Helper()
	if err := as.Map(ptVAs[3], as.Phys().Alloc(), FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Unmap(ptVAs[0]); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(ptVAs[1], 0); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableForkWritesIsolated(t *testing.T) {
	for _, writer := range []string{"fork", "parent"} {
		t.Run(writer, func(t *testing.T) {
			parent := ptParent(t)
			fork := parent.Fork(parent.Phys().Fork())
			defer fork.Phys().Release()
			before := lookupAll(parent, ptVAs)
			w, r := fork, parent
			if writer == "parent" {
				w, r = parent, fork
			}
			gen := r.Generation()
			scribble(t, w)
			sameMappings(t, "reader", before, lookupAll(r, ptVAs), ptVAs)
			if r.MappedPages() != 3 || w.MappedPages() != 3 {
				t.Fatalf("mapped pages: reader %d, writer %d, want 3 and 3", r.MappedPages(), w.MappedPages())
			}
			if r.Generation() != gen {
				t.Fatal("the writer's unmap/protect bumped the reader's generation")
			}
			got := lookupAll(w, ptVAs)
			if got[0].ok || !got[3].ok || got[1].flags != 0 || got[2] != before[2] {
				t.Fatalf("writer's own mappings after its writes: %+v", got)
			}
			// The reader can still write the pages the writer changed.
			if err := r.Protect(ptVAs[1], FlagWrite); err != nil {
				t.Fatal(err)
			}
			if _, fl, _ := w.Lookup(ptVAs[1]); fl != 0 {
				t.Fatalf("reader's protect leaked into the writer: %v", fl)
			}
		})
	}
}

func TestPageTableForkReclaimKeepsParentTable(t *testing.T) {
	// ptVAs[2] is alone in its level-1 subtree: unmapping it in the fork
	// empties and reclaims three interior tables of the fork's tree.
	parent := ptParent(t)
	fork := parent.Fork(parent.Phys().Fork())
	defer fork.Phys().Release()
	if _, err := fork.Unmap(ptVAs[2]); err != nil {
		t.Fatal(err)
	}
	ix := indexes(ptVAs[2])
	if c := fork.root.next[ix[0]]; c == nil || c.next[ix[1]] != nil {
		t.Fatal("the fork did not reclaim the emptied subtree")
	}
	if f, _, ok := parent.Lookup(ptVAs[2]); !ok || f == NoFrame {
		t.Fatal("the fork's reclaim removed the parent's mapping")
	}
	// The parent's interior tables are intact and still writable.
	if err := parent.Map(ptVAs[2]+PageSize, parent.Phys().Alloc(), FlagWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Unmap(ptVAs[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := fork.Lookup(ptVAs[2] + PageSize); ok {
		t.Fatal("the parent's map in a shared subtree leaked into the fork")
	}
}

func TestPageTableForkOfFork(t *testing.T) {
	parent := ptParent(t)
	mid := parent.Fork(parent.Phys().Fork())
	defer mid.Phys().Release()
	if err := mid.Protect(ptVAs[2], 0); err != nil {
		t.Fatal(err)
	}
	leaf := mid.Fork(mid.Phys().Fork())
	defer leaf.Phys().Release()
	pBefore, mBefore := lookupAll(parent, ptVAs), lookupAll(mid, ptVAs)

	scribble(t, leaf)
	sameMappings(t, "parent after leaf writes", pBefore, lookupAll(parent, ptVAs), ptVAs)
	sameMappings(t, "mid after leaf writes", mBefore, lookupAll(mid, ptVAs), ptVAs)
	lBefore := lookupAll(leaf, ptVAs)

	scribble(t, mid)
	sameMappings(t, "parent after mid writes", pBefore, lookupAll(parent, ptVAs), ptVAs)
	sameMappings(t, "leaf after mid writes", lBefore, lookupAll(leaf, ptVAs), ptVAs)
	if _, fl, _ := leaf.Lookup(ptVAs[2]); fl != 0 {
		t.Fatalf("leaf lost the protect mid made before the fork: %v", fl)
	}
}

func TestPageTableConcurrentForks(t *testing.T) {
	// Forks of one parent taken and written concurrently; run under -race.
	parent := ptParent(t)
	want := lookupAll(parent, ptVAs)
	const forks = 8
	var wg sync.WaitGroup
	for n := 0; n < forks; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			f := parent.Fork(parent.Phys().Fork())
			defer f.Phys().Release()
			va := KernelBase + uint64(n+1)<<30 // a subtree of its own
			for i := 0; i < 4; i++ {
				if err := f.Map(va+uint64(i)*PageSize, f.Phys().Alloc(), FlagWrite); err != nil {
					t.Error(err)
					return
				}
			}
			if err := f.Protect(ptVAs[n%3], 0); err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Unmap(ptVAs[(n+1)%3]); err != nil {
				t.Error(err)
				return
			}
			if _, fl, ok := f.Lookup(ptVAs[n%3]); !ok || fl != 0 {
				t.Errorf("fork %d: protect not visible to itself", n)
			}
			if f.MappedPages() != 6 {
				t.Errorf("fork %d maps %d pages, want 6", n, f.MappedPages())
			}
		}(n)
	}
	wg.Wait()
	sameMappings(t, "parent", want, lookupAll(parent, ptVAs), ptVAs)
	if parent.MappedPages() != 3 {
		t.Fatalf("parent maps %d pages, want 3", parent.MappedPages())
	}
}

func TestPageTableForkAllocsIndependentOfSize(t *testing.T) {
	allocs := func(npages int) float64 {
		as := NewAddressSpace(NewPhysMem())
		if _, err := as.MapRegion(KernelBase, npages, FlagWrite); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() { as.Fork(as.Phys()) })
	}
	small, large := allocs(1), allocs(4096)
	if small != large {
		t.Fatalf("AddressSpace.Fork allocates %v times with 1 page mapped, %v with 4096", small, large)
	}
}

// Frame slots are shared by chunks of chunkFrames: Fork bumps one
// count per chunk, and a machine copies a chunk the first time it
// writes (or, forked, translates) a frame in it. The tests below place
// their writes on chunk boundaries and check every observable —
// contents, sharedFrames, Release's dead count, COWDetaches — against
// a model of per-frame sharing, in which every machine holds its own
// reference on every frame record.

// cowModel tracks, per machine, which frame record each frame holds and
// the value at the start of each page, plus each record's machine count.
type cowModel struct {
	recs map[*AddressSpace][]int
	vals map[*AddressSpace][]uint64
	refs map[int]int
	next int
}

// chunkSetup maps 2*chunkFrames+5 writable pages (frames 0..n-1, the
// last chunk partial), writes page i's first word as 1000+i and returns
// the address space and its model.
func chunkSetup(t *testing.T) (*AddressSpace, *cowModel) {
	t.Helper()
	const n = 2*chunkFrames + 5
	as := NewAddressSpace(NewPhysMem())
	if _, err := as.MapRegion(KernelBase, n, FlagWrite); err != nil {
		t.Fatal(err)
	}
	m := &cowModel{recs: map[*AddressSpace][]int{}, vals: map[*AddressSpace][]uint64{}, refs: map[int]int{}}
	for i := 0; i < n; i++ {
		if err := as.Write64(pageVA(i), 1000+uint64(i)); err != nil {
			t.Fatal(err)
		}
		m.recs[as] = append(m.recs[as], m.next)
		m.vals[as] = append(m.vals[as], 1000+uint64(i))
		m.refs[m.next] = 1
		m.next++
	}
	return as, m
}

func pageVA(i int) uint64 { return KernelBase + uint64(i)*PageSize }

// fork forks as in the address space and the model.
func (m *cowModel) fork(as *AddressSpace) *AddressSpace {
	f := as.Fork(as.Phys().Fork())
	m.recs[f] = slices.Clone(m.recs[as])
	m.vals[f] = slices.Clone(m.vals[as])
	for _, r := range m.recs[f] {
		m.refs[r]++
	}
	return f
}

// write stores v at page i through as: a shared record detaches.
func (m *cowModel) write(t *testing.T, as *AddressSpace, i int, v uint64) {
	t.Helper()
	if err := as.Write64(pageVA(i), v); err != nil {
		t.Fatal(err)
	}
	if r := m.recs[as][i]; m.refs[r] > 1 {
		m.refs[r]--
		m.recs[as][i] = m.next
		m.refs[m.next] = 1
		m.next++
	}
	m.vals[as][i] = v
}

// release releases as and returns the model's dead count.
func (m *cowModel) release(as *AddressSpace) (got, want int64) {
	for _, r := range m.recs[as] {
		if m.refs[r]--; m.refs[r] == 0 {
			want++
		}
	}
	delete(m.recs, as)
	return as.Phys().Release(), want
}

// check compares contents and sharedFrames of every live machine.
func (m *cowModel) check(t *testing.T, names map[*AddressSpace]string) {
	t.Helper()
	for as, recs := range m.recs {
		var shared int64
		for i, r := range recs {
			if m.refs[r] > 1 {
				shared++
			}
			got, err := as.Read64(pageVA(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != m.vals[as][i] {
				t.Errorf("%s: page %d reads %d, want %d", names[as], i, got, m.vals[as][i])
			}
		}
		if got := sharedFrames(as.Phys()); got != shared {
			t.Errorf("%s: shared frames %d, want %d", names[as], got, shared)
		}
	}
}

// edges are pages on both sides of each chunk boundary plus the last
// page of the partial chunk.
var edges = []int{0, chunkFrames - 1, chunkFrames, 2*chunkFrames - 1, 2 * chunkFrames, 2*chunkFrames + 4}

func TestCOWChunkBoundaryWrites(t *testing.T) {
	tmpl, m := chunkSetup(t)
	f := m.fork(tmpl)
	sib := m.fork(tmpl)
	names := map[*AddressSpace]string{tmpl: "template", f: "fork", sib: "sibling"}
	m.check(t, names)
	for _, i := range edges {
		m.write(t, f, i, 2000+uint64(i))
	}
	m.check(t, names)
	for _, i := range edges[1:4] {
		m.write(t, sib, i, 3000+uint64(i))
	}
	m.check(t, names)
	// The template writes last, into chunks both forks have copied and
	// into one neither touched.
	for _, i := range []int{chunkFrames, chunkFrames + 1} {
		m.write(t, tmpl, i, 4000+uint64(i))
	}
	m.check(t, names)
	if got, want := f.Phys().COWDetaches(), int64(len(edges)); got != want {
		t.Errorf("fork detached %d frames, want %d", got, want)
	}
	for _, as := range []*AddressSpace{sib, f, tmpl} {
		if got, want := m.release(as); got != want {
			t.Errorf("%s: Release freed %d records, want %d", names[as], got, want)
		}
		m.check(t, names)
	}
}

func TestCOWChunkForkOfFork(t *testing.T) {
	tmpl, m := chunkSetup(t)
	mid := m.fork(tmpl)
	for _, i := range edges[:3] {
		m.write(t, mid, i, 2000+uint64(i))
	}
	leaf := m.fork(mid)
	names := map[*AddressSpace]string{tmpl: "template", mid: "mid", leaf: "leaf"}
	m.check(t, names)
	for _, i := range edges {
		m.write(t, leaf, i, 5000+uint64(i))
	}
	m.check(t, names)
	// Releasing out of fork order: the template first.
	for _, as := range []*AddressSpace{tmpl, leaf, mid} {
		if got, want := m.release(as); got != want {
			t.Errorf("%s: Release freed %d records, want %d", names[as], got, want)
		}
		m.check(t, names)
	}
}

func TestCOWChunkAllocRecyclesSharedFrame(t *testing.T) {
	// The template frees the frame at a chunk boundary and allocates
	// again: the recycled frame must be zeroed for the template only.
	tmpl, m := chunkSetup(t)
	f := m.fork(tmpl)
	const i = chunkFrames
	id, err := tmpl.Unmap(pageVA(i))
	if err != nil {
		t.Fatal(err)
	}
	tmpl.Phys().Free(id)
	if got := tmpl.Phys().Alloc(); got != id {
		t.Fatalf("Alloc returned frame %d, want the freed %d", got, id)
	}
	if b := tmpl.Phys().Frame(id); b[0] != 0 {
		t.Fatalf("recycled frame not zeroed for the template: %#x", b[0])
	}
	if got, err := f.Read64(pageVA(i)); err != nil || got != 1000+i {
		t.Fatalf("fork reads %d, %v after the template recycled the frame", got, err)
	}
	if got := tmpl.Phys().COWDetaches(); got != 1 {
		t.Fatalf("template detached %d frames, want 1", got)
	}
	if got := sharedFrames(f.Phys()); got != 2*chunkFrames+4 {
		t.Fatalf("fork shares %d frames, want every frame but the recycled one", got)
	}
	if got, want := f.Phys().Release(), int64(1); got != want {
		t.Fatalf("fork Release freed %d records, want %d (the pre-recycle record)", got, want)
	}
}

// TestCOWDetachCountedOnDetachingMachine: a fork left as the sole
// holder of its template's original chunk (the template and a sibling
// have copied theirs) counts its own detaches, not the template's.
func TestCOWDetachCountedOnDetachingMachine(t *testing.T) {
	tmpl := NewAddressSpace(NewPhysMem())
	if _, err := tmpl.MapRegion(KernelBase, 2, FlagWrite); err != nil {
		t.Fatal(err)
	}
	f := tmpl.Fork(tmpl.Phys().Fork())
	s := tmpl.Fork(tmpl.Phys().Fork())
	if err := tmpl.Write64(pageVA(0), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read64(pageVA(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Write64(pageVA(1), 2); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		as   *AddressSpace
		want int64
	}{"template": {tmpl, 1}, "fork": {f, 1}, "sibling": {s, 0}} {
		if got := c.as.Phys().COWDetaches(); got != c.want {
			t.Errorf("%s counted %d detaches, want %d", name, got, c.want)
		}
	}
}

func TestPhysForkAllocsIndependentOfSize(t *testing.T) {
	allocs := func(nframes int) float64 {
		p := NewPhysMem()
		p.AllocN(nframes)
		return testing.AllocsPerRun(100, func() { p.Fork().Release() })
	}
	small, large := allocs(64), allocs(4096)
	if small != large {
		t.Fatalf("PhysMem.Fork+Release allocates %v times with 64 frames, %v with 4096", small, large)
	}
}

func TestPhysAllocCopiesNoTable(t *testing.T) {
	// Appending a frame writes the last chunk in place, so an Alloc
	// costs the same on a 4096-frame table as on a 64-frame one (copying
	// the table would add 8 bytes per frame already allocated).
	perAlloc := func(nframes int) uint64 {
		p := NewPhysMem()
		p.AllocN(nframes)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		const n = 8 * chunkFrames
		for i := 0; i < n; i++ {
			p.Alloc()
		}
		runtime.ReadMemStats(&ms1)
		return (ms1.TotalAlloc - ms0.TotalAlloc) / n
	}
	small, large := perAlloc(64), perAlloc(4096)
	if large > small+small/8 {
		t.Fatalf("Alloc allocates %d bytes on a 4096-frame table, %d on a 64-frame one", large, small)
	}
}

// Unmap keeps the interior levels it reclaims on the address space's
// spare list, and writablePath reuses them for the next missing table.
// The tests below move a module-sized run to far-apart bases, as a
// re-randomization step does, on templates and forks, and check each
// side against a model of its translations plus the page-table
// invariants reuse relies on.

// runPages is the moving run's size: a module's footprint, large enough
// to cross a leaf-table boundary from the bases runBase picks.
const runPages = 24

// runBase returns the base of move n of a run: far from every other
// move's (a level-0 index of its own, so each move empties and fills a
// whole table path), 8 pages short of a 1 GB boundary, so the run spans
// two leaf tables and two of their parents.
func runBase(seed, n int) uint64 {
	top := uint64(seed*64+n)%255 + 1
	return KernelBase + top<<(PageShift+4*levelBits) + uint64(n)<<(PageShift+2*levelBits) - 8*PageSize
}

// ptModel is the expected state of one address space: its live
// translations, the VAs it must not map (bases it moved away from and
// the guard pages around its run) and the first word of every frame it
// allocated or inherited.
type ptModel struct {
	as    *AddressSpace
	live  map[uint64]mapping
	gone  map[uint64]bool
	words map[FrameID]uint64
	base  uint64 // the run's current base
}

// newRunModel maps a run of runPages writable pages at runBase(seed, 0)
// plus one static page that never moves.
func newRunModel(t *testing.T, seed int) *ptModel {
	t.Helper()
	m := &ptModel{as: NewAddressSpace(NewPhysMem()), live: map[uint64]mapping{}, gone: map[uint64]bool{}, words: map[FrameID]uint64{}}
	m.base = runBase(seed, 0)
	for _, r := range []struct {
		va uint64
		n  int
	}{{KernelBase, 1}, {m.base, runPages}} {
		frames, err := m.as.MapRegion(r.va, r.n, FlagWrite)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range frames {
			m.live[r.va+uint64(i)*PageSize] = mapping{f, FlagWrite, true}
			m.words[f] = 0
		}
	}
	return m
}

// fork forks the model's address space and copies the model.
func (m *ptModel) fork() *ptModel {
	as := m.as.Fork(m.as.Phys().Fork())
	return &ptModel{as: as, live: maps.Clone(m.live), gone: maps.Clone(m.gone), words: maps.Clone(m.words), base: m.base}
}

// move remaps the run at base (Lookup + Map per page, then UnmapRegion of
// the old range, as a re-randomization step does) and checks that the path to
// every page of the new range is owned by the address space.
func (m *ptModel) move(t *testing.T, base uint64) {
	t.Helper()
	if err := remap(m.as, base, m.base, runPages); err != nil {
		t.Fatal(err)
	}
	if err := m.as.UnmapRegion(m.base, runPages, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runPages; i++ {
		old, va := m.base+uint64(i)*PageSize, base+uint64(i)*PageSize
		m.live[va] = m.live[old]
		delete(m.live, old)
		m.gone[old] = true
		delete(m.gone, va)
		m.checkOwnedPath(t, va)
	}
	m.gone[base-PageSize], m.gone[base+runPages*PageSize] = true, true
	m.base = base
}

// mapPage maps a fresh frame at va and checks that the path to it is
// owned by the address space.
func (m *ptModel) mapPage(t *testing.T, va uint64) {
	t.Helper()
	f := m.as.Phys().Alloc()
	if err := m.as.Map(va, f, FlagWrite); err != nil {
		t.Fatal(err)
	}
	m.live[va] = mapping{f, FlagWrite, true}
	m.words[f] = 0
	m.checkOwnedPath(t, va)
}

// write stores v into the first word of the frame mapped at va, through
// the copy-on-write path every direct frame write takes. An unmapped va
// writes nothing.
func (m *ptModel) write(va, v uint64) {
	if e, ok := m.live[va]; ok {
		binary.LittleEndian.PutUint64(m.as.Phys().WritableFrame(e.frame), v)
		m.words[e.frame] = v
	}
}

// unmapPage unmaps va and checks the frame Unmap returns against the
// model, or that an unmapped va is refused.
func (m *ptModel) unmapPage(t *testing.T, va uint64) {
	t.Helper()
	f, err := m.as.Unmap(va)
	want, ok := m.live[va]
	switch {
	case !ok && err == nil:
		t.Fatalf("Unmap of unmapped va %#x succeeded", va)
	case ok && (err != nil || f != want.frame):
		t.Fatalf("Unmap %#x = (%d, %v), want frame %d", va, f, err, want.frame)
	case ok:
		delete(m.live, va)
		m.gone[va] = true
	}
}

// protect sets the flags of va and checks that the path to it is owned
// by the address space afterwards, or that an unmapped va is refused.
func (m *ptModel) protect(t *testing.T, va uint64, flags PageFlags) {
	t.Helper()
	err := m.as.Protect(va, flags)
	want, ok := m.live[va]
	if !ok {
		if err == nil {
			t.Fatalf("Protect of unmapped va %#x succeeded", va)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	want.flags = flags
	m.live[va] = want
	m.checkOwnedPath(t, va)
}

// checkOwnedPath checks that every table on the path to va is owned by
// the address space, as writablePath promises after a write there.
func (m *ptModel) checkOwnedPath(t *testing.T, va uint64) {
	t.Helper()
	ix := indexes(va)
	tab := m.as.root
	for l := 0; ; l++ {
		if tab.owner != m.as.tag {
			t.Fatalf("va %#x: level-%d table is owned by %d, not the writer %d", va, l, tab.owner, m.as.tag)
		}
		if l == numLevels-1 {
			return
		}
		tab = tab.next[ix[l]]
	}
}

// check compares the address space's translations and MappedPages with
// the model, and checks every table's used count and kind and the spare
// lists. It returns the tables reachable from the root and the spare
// tables.
func (m *ptModel) check(t *testing.T, who string) (tree, spares map[*table]bool) {
	t.Helper()
	for va, want := range m.live {
		if f, fl, ok := m.as.Lookup(va); (mapping{f, fl, ok}) != want {
			t.Errorf("%s: va %#x maps %+v, want %+v", who, va, mapping{f, fl, ok}, want)
		}
	}
	for va := range m.gone {
		if _, ok := m.live[va]; !ok {
			if f, _, ok := m.as.Lookup(va); ok {
				t.Errorf("%s: va %#x maps frame %d, want unmapped", who, va, f)
			}
		}
	}
	if got := m.as.MappedPages(); got != len(m.live) {
		t.Errorf("%s: MappedPages %d, want %d", who, got, len(m.live))
	}
	for f, want := range m.words {
		if got := binary.LittleEndian.Uint64(m.as.Phys().Frame(f)); got != want {
			t.Errorf("%s: frame %d holds %#x, want %#x", who, f, got, want)
		}
	}
	tree, spares = map[*table]bool{}, map[*table]bool{}
	var leaves int
	var visit func(tab *table, level int)
	visit = func(tab *table, level int) {
		if (tab.ptes != nil) != (level == numLevels-1) || (tab.next != nil) == (tab.ptes != nil) {
			t.Errorf("%s: level-%d table has the wrong kind", who, level)
			return
		}
		var n int
		if tab.ptes != nil {
			for _, e := range tab.ptes {
				if e != 0 {
					n++
				}
			}
			leaves += n
		} else {
			for _, c := range tab.next {
				if c != nil {
					n++
					tree[c] = true
					visit(c, level+1)
				}
			}
		}
		if n != tab.used {
			t.Errorf("%s: level-%d table holds %d entries, used says %d", who, level, n, tab.used)
		}
	}
	visit(m.as.root, 0)
	if leaves != len(m.live) {
		t.Errorf("%s: tree holds %d leaf entries, want %d", who, leaves, len(m.live))
	}
	for _, l := range []struct {
		head *table
		leaf bool
	}{{m.as.spare, false}, {m.as.spareLeaves, true}} {
		for tab := l.head; tab != nil; tab = tab.link {
			switch {
			case spares[tab]:
				t.Errorf("%s: a table is on a spare list twice", who)
				return tree, spares
			case tree[tab]:
				t.Errorf("%s: a spare table is still in the tree", who)
			case (tab.ptes != nil) != l.leaf || (tab.next != nil) == l.leaf:
				t.Errorf("%s: a table is on the wrong spare list", who)
			case tab.used != 0 || (tab.ptes != nil && *tab.ptes != [1 << levelBits]pte{}) ||
				(tab.next != nil && *tab.next != [1 << levelBits]*table{}):
				t.Errorf("%s: a spare table holds entries (used %d)", who, tab.used)
			}
			spares[tab] = true
		}
	}
	return tree, spares
}

// checkFamily checks every model and that no table one address space
// may write in place, or holds as a spare, is reachable from another.
func checkFamily(t *testing.T, ms map[string]*ptModel) {
	t.Helper()
	trees, spares := map[string]map[*table]bool{}, map[string]map[*table]bool{}
	for who, m := range ms {
		trees[who], spares[who] = m.check(t, who)
	}
	for a, ma := range ms {
		for b := range ms {
			if a == b {
				continue
			}
			for tab := range trees[a] {
				if tab.owner == ma.as.tag && (trees[b][tab] || spares[b][tab]) {
					t.Errorf("a table %s owns is reachable from %s", a, b)
				}
			}
			for tab := range spares[a] {
				if trees[b][tab] || spares[b][tab] {
					t.Errorf("a spare table of %s is reachable from %s", a, b)
				}
			}
		}
	}
}

func TestPageTableRecycleTemplateAndFork(t *testing.T) {
	tmpl := newRunModel(t, 0)
	var steady int
	for n := 1; n <= 8; n++ {
		tmpl.move(t, runBase(0, n))
		tree, spares := tmpl.check(t, "template")
		// Every move needs the same number of tables, so once the
		// first move has filled the spare list, tree plus spares stays
		// at the peak tree size.
		if n == 1 {
			steady = len(tree) + len(spares)
		} else if got := len(tree) + len(spares); got != steady {
			t.Fatalf("move %d: %d tables in tree and spares, want the steady %d", n, got, steady)
		}
	}
	if tmpl.as.spare == nil || tmpl.as.spareLeaves == nil {
		t.Fatal("the template holds no spare tables after its moves")
	}
	// Both sides of a Fork taken while the template holds spares move
	// their runs, interleaved, to bases the other side also uses.
	f := tmpl.fork()
	ms := map[string]*ptModel{"template": tmpl, "fork": f}
	checkFamily(t, ms)
	// The first map on each side after the Fork must not take a level
	// from the spares the template held: they carry the tag Fork retired.
	tmpl.mapPage(t, runBase(1, 0))
	f.mapPage(t, runBase(1, 0))
	checkFamily(t, ms)
	for n := 9; n <= 16; n++ {
		f.move(t, runBase(1, n))
		checkFamily(t, ms)
		tmpl.move(t, runBase(1, n+1))
		checkFamily(t, ms)
	}
	f.as.Phys().Release()
}

func TestPageTableRecycleForkOfFork(t *testing.T) {
	tmpl := newRunModel(t, 2)
	mid := tmpl.fork()
	for n := 1; n <= 4; n++ {
		mid.move(t, runBase(2, n))
	}
	leaf := mid.fork()
	ms := map[string]*ptModel{"template": tmpl, "mid": mid, "leaf": leaf}
	checkFamily(t, ms)
	mid.mapPage(t, runBase(3, 0))
	checkFamily(t, ms)
	for n := 5; n <= 10; n++ {
		leaf.move(t, runBase(3, n))
		checkFamily(t, ms)
		mid.move(t, runBase(3, n+1))
		checkFamily(t, ms)
		tmpl.move(t, runBase(3, n+2))
		checkFamily(t, ms)
	}
	leaf.as.Phys().Release()
	mid.as.Phys().Release()
}

func TestPageTableRecycleAllocatesNoTable(t *testing.T) {
	// Each cycle unmaps the one mapped page and maps its frame on a
	// path of its own: once warm, every table on the path comes from the
	// spare lists and the PTE is written in place, so the cycle
	// allocates nothing.
	as := NewAddressSpace(NewPhysMem())
	frame := as.Phys().Alloc()
	va := func(n int) uint64 { return KernelBase + uint64(n%7+1)<<(PageShift+4*levelBits) }
	if err := as.Map(va(0), frame, FlagWrite); err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := as.Unmap(va(n)); err != nil {
			t.Fatal(err)
		}
		n++
		if err := as.Map(va(n), frame, FlagWrite); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an Unmap-then-Map cycle at a fresh path allocates %v objects, want 0", allocs)
	}
}

// fuzzVA maps a byte to one of 256 kernel pages laid out so that ops
// share table paths at every level: bits 0-2 pick the page within a
// leaf, bits 3-4 the leaf, bits 5-6 the level-3 table and bit 7 the
// level-2 table. Byte 0 is the run models' static page.
func fuzzVA(b byte) uint64 {
	v := uint64(b)
	return KernelBase | v>>7<<(PageShift+3*levelBits) | v>>5&3<<(PageShift+2*levelBits) |
		v>>3&3<<(PageShift+levelBits) | v&7<<PageShift
}

// FuzzPageTableOps decodes its input into Map, Unmap, Protect, move,
// Fork, write and Release operations on a family of address spaces
// forked from one template, two bytes an op. The first byte picks the
// op (mod 7), the family member (high nibble) and Protect's flags; the
// second picks the page. After every op each member is checked against
// its model, frame contents included, and the family against the
// sharing invariants (checkFamily): the model says what must hold, the
// checker looks at the tables themselves. A released member's dead
// frame records go to the pool the survivors' allocations and
// copy-on-write detaches take from, so a record pooled while a live
// member still maps it shows as that member's frame changing under it.
func FuzzPageTableOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps, maxFamily = 64, 4
		family := []*ptModel{newRunModel(t, 0)}
		ms := map[string]*ptModel{"m0": family[0]}
		defer func() {
			for _, m := range family {
				m.as.Phys().Release()
			}
		}()
		moves, born, stores := 0, 1, uint64(0)
		for n := 0; n < maxOps && len(data) >= 2; n++ {
			sel, va := data[0], fuzzVA(data[1])
			data = data[2:]
			i := int(sel>>4) % len(family)
			m := family[i]
			switch sel % 7 {
			case 0:
				if _, ok := m.live[va]; !ok {
					m.mapPage(t, va)
				} else if err := m.as.Map(va, 0, FlagWrite); err == nil {
					t.Fatalf("Map over mapped va %#x succeeded", va)
				}
			case 1:
				m.unmapPage(t, va)
			case 2:
				m.protect(t, va, []PageFlags{0, FlagWrite, FlagExec}[sel/7%3])
			case 3:
				moves++
				m.move(t, runBase(0, moves))
			case 4:
				if len(family) < maxFamily {
					c := m.fork()
					ms[fmt.Sprint("m", born)] = c
					born++
					family = append(family, c)
				}
			case 5:
				stores++
				m.write(va, stores)
			case 6:
				if len(family) > 1 {
					m.as.Phys().Release()
					family = slices.Delete(family, i, i+1)
					maps.DeleteFunc(ms, func(_ string, v *ptModel) bool { return v == m })
				}
			}
			checkFamily(t, ms)
		}
	})
}

// sharedFrames returns the number of frames p currently shares
// copy-on-write with another machine: every frame of a shared chunk, and
// each frame of an owned chunk whose record another chunk also points at.
func sharedFrames(p *PhysMem) int64 {
	var n int64
	for _, c := range *p.chunks.Load() {
		shared := c.refs.Load() > 1
		for i := range c.slots {
			fd := c.slots[i].fd.Load()
			if fd == nil {
				break
			}
			if shared || fd.refs.Load() > 1 {
				n++
			}
		}
	}
	return n
}
