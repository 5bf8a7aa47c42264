// Package mm simulates the memory subsystem Adelie manipulates: physical
// page frames, a 57-bit virtual address space with 5-level page tables,
// page permissions (including NX / W^X enforcement), and TLBs.
//
// The central operation for the paper is zero-copy remapping (Fig. 2a):
// the re-randomizer Maps the same physical frames at a new random base,
// so moving a module never copies its code or data. Unmapping the old range is deferred by the
// re-randomizer until pending calls drain (internal/smr + internal/rerand).
package mm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Page geometry. AK64 uses 4 KB pages and five 9-bit translation levels,
// giving the 57-bit virtual address space of x86-64 5-level paging (the
// configuration the paper's §6 entropy analysis assumes).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	levelBits = 9
	numLevels = 5

	// VABits is the number of meaningful virtual-address bits.
	VABits = PageShift + levelBits*numLevels // 57

	// KernelBase is the lowest kernel-half virtual address. Addresses at or
	// above it are kernel space; below is user space (SMAP: the kernel
	// refuses to fetch code from user pages).
	KernelBase = uint64(1) << (VABits - 1)

	// MaxVA is one past the highest valid virtual address.
	MaxVA = uint64(1) << VABits
)

// FrameID identifies a physical page frame.
type FrameID uint64

// NoFrame is the zero FrameID sentinel used where no frame applies.
const NoFrame = FrameID(^uint64(0))

// PageFlags describe page permissions. A present page is always readable;
// Write and Exec are granted separately so W^X can be enforced.
type PageFlags uint8

const (
	FlagWrite PageFlags = 1 << iota // page is writable
	FlagExec                        // page is executable (NX clear)
	FlagUser                        // page belongs to user space
	FlagMMIO                        // loads/stores are routed to a device
)

func (f PageFlags) String() string {
	s := "r"
	if f&FlagWrite != 0 {
		s += "w"
	} else {
		s += "-"
	}
	if f&FlagExec != 0 {
		s += "x"
	} else {
		s += "-"
	}
	if f&FlagUser != 0 {
		s += "u"
	}
	if f&FlagMMIO != 0 {
		s += "m"
	}
	return s
}

// Access is the kind of memory access being attempted.
type Access uint8

const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "?"
}

// PageFault reports a failed translation. The Adelie threat model leans on
// these: writes to a write-protected GOT fault, execution of NX data
// faults, and stale module addresses fault once the old range is unmapped.
type PageFault struct {
	VA     uint64
	Access Access
	Reason string
}

func (e *PageFault) Error() string {
	return fmt.Sprintf("page fault: %s at %#x (%s)", e.Access, e.VA, e.Reason)
}

// frameData is one physical frame plus the metadata the execution fast
// paths need. The content version is bumped on every write to a frame
// that is (or ever was) mapped executable; the per-vCPU caches of decoded
// code (cpu's superblocks) validate against it, which closes the W^X hole of writing a
// code page through a writable alias mapping.
//
// refs counts the slots pointing at this record, across every slot
// chunk alive in any machine (see slotChunk). A frame is born private
// (refs == 1); copying a shared chunk bumps refs for every frame in it,
// and the first write through any sharer replaces its slot's record with
// a private copy (see frameSlot.private). Content never changes under a
// sharer's feet: a shared record is immutable until the last-but-one
// reference detaches.
//
// A record whose last reference dies goes to deadFrames, and the next
// record any machine needs is taken from there (takeFrame). That is safe
// because a record is pooled only when refs reaches 0, and a live
// machine never holds a dead record: its slots, TLB entries and decoded
// code refer only to records its own chunks reference. Stale references
// can survive in a released machine, or in a cache that has not yet
// revalidated against a slot whose record was swapped, and both compare
// versions: a reused record's version moves past its own earlier values
// and past the record it replaces in a slot, so no stale FrameRef can
// ever validate against it.
type frameData struct {
	data [PageSize]byte
	ver  atomic.Uint64 // content version (see NoteWrite)
	exec atomic.Bool   // frame has been mapped executable at least once
	refs atomic.Int64  // slots pointing at this record (1 = private)
}

// frameSlot is one machine's view of a physical frame: a stable cell
// whose current frameData pointer is swapped on copy-on-write. Slots live
// in chunks a machine shares with its fork relatives until it writes
// one, so the FrameID namespace (and everything keyed by it: page
// tables, module bookkeeping, block caches) stays valid verbatim.
type frameSlot struct {
	mu sync.Mutex // serializes copy-on-write on this slot
	fd atomic.Pointer[frameData]
}

// load returns the slot's current frame record.
func (s *frameSlot) load() *frameData { return s.fd.Load() }

// private returns the slot's frame record, detaching it from any
// copy-on-write sharing first: if the record is shared, its bytes are
// copied into a fresh private record whose content version is bumped —
// which is exactly what invalidates superblocks and chain links built
// against the shared bytes. The detach is counted on ctr, the detaching
// machine's counter (PhysMem.detaches) that the engine samples at round
// barriers — not on the slot, whose chunk a fork may end up holding
// alone. The slot must sit in a chunk its machine owns
// (PhysMem.ownSlot): a write to a shared chunk's slot would swap the
// record under every sharer.
func (s *frameSlot) private(ctr *atomic.Int64) *frameData {
	fd := s.fd.Load()
	if fd.refs.Load() == 1 {
		return fd
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fd = s.fd.Load()
	if fd.refs.Load() == 1 {
		return fd
	}
	nfd := takeFrame(fd.ver.Load() + 1)
	nfd.data = fd.data
	if fd.exec.Load() {
		codeWrites.Add(1) // only exec-mapped frames hold decoded code
		nfd.exec.Store(true)
	}
	s.fd.Store(nfd)
	fd.unref()
	ctr.Add(1)
	return nfd
}

// deadFrames holds frame records whose last reference died, for
// takeFrame to reuse: allocation, not execution, sets the throughput of
// fork-heavy runs, and most of what they allocate is frame records.
var deadFrames sync.Pool

// takeFrame returns a private record (refs == 1, exec clear) whose
// version is at least floor: a reused dead record, or a new one. A
// reused record keeps its old bytes — the caller zeroes or overwrites
// them — and its version moves past every value it held before, so
// references left over from its earlier lives never validate.
func takeFrame(floor uint64) *frameData {
	fd, _ := deadFrames.Get().(*frameData)
	if fd == nil {
		fd = &frameData{}
	} else {
		floor = max(floor, fd.ver.Load()+1)
		fd.exec.Store(false)
	}
	fd.ver.Store(floor)
	fd.refs.Store(1)
	return fd
}

// unref drops one slot's reference on the record and pools the record
// if that was the last one.
func (f *frameData) unref() bool {
	if f.refs.Add(-1) != 0 {
		return false
	}
	deadFrames.Put(f)
	return true
}

// chunkFrames is the number of frame slots per chunk: the unit a fork
// shares with its parent and copies on first touch. Smaller chunks copy
// less on a touch; larger ones make Fork and Release cheaper.
const chunkFrames = 16

// slotChunk is a run of chunkFrames consecutive frame slots. A chunk is
// shared by every machine whose slot table points at it; refs counts
// them. A machine may write a chunk's slots only while it holds the
// sole reference (refs == 1) — otherwise it copies the chunk first
// (PhysMem.ownChunk). Forking a machine is thus one refs bump per
// chunk, and per-frame work happens only in chunks a machine touches.
// Slots past the machine's frame count have a nil record.
type slotChunk struct {
	slots [chunkFrames]frameSlot
	refs  atomic.Int64
}

// PhysMem is the physical memory of one machine: a growable set of 4 KB
// frames with a free list. Frames are zeroed on allocation.
//
// The chunk table is published through an atomic pointer and the frame
// count through an atomic counter, so that the translation fast path
// can index frames without taking the allocator lock. Writers hold mu:
// Alloc initializes the new slot (and publishes any new chunk) before
// bumping n, and replacing a chunk publishes a new table, so readers
// always observe a prefix that is fully initialized.
type PhysMem struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*slotChunk]
	n      atomic.Int64 // frames in the table (FrameIDs 0..n-1)
	free   []FrameID

	allocated atomic.Int64 // currently live frames
	detaches  atomic.Int64 // copy-on-write detaches (see COWDetaches)
	released  bool         // Release was called (teardown); second call panics
}

// NewPhysMem returns an empty physical memory.
func NewPhysMem() *PhysMem {
	p := &PhysMem{}
	p.chunks.Store(new([]*slotChunk))
	return p
}

// newFrameData returns a zeroed private record for a slot that had
// none.
func newFrameData() *frameData {
	fd := takeFrame(0)
	fd.data = [PageSize]byte{}
	return fd
}

// Alloc allocates a zeroed frame.
func (p *PhysMem) Alloc() FrameID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.allocated.Add(1)
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		s := &p.ownChunk(int(id / chunkFrames)).slots[id%chunkFrames]
		f := s.fd.Load()
		if f.refs.Load() > 1 {
			// The recycled frame is still shared copy-on-write with a
			// sibling machine: detach instead of zeroing in place. The
			// fresh record continues the version sequence so stale cache
			// entries in this machine can never validate against it.
			nf := takeFrame(f.ver.Load() + 1)
			nf.data = [PageSize]byte{}
			if f.exec.Load() {
				codeWrites.Add(1) // only exec-mapped frames hold decoded code
			}
			s.fd.Store(nf)
			f.unref()
			p.detaches.Add(1)
			return id
		}
		f.data = [PageSize]byte{}
		// A recycled frame may carry decoded blocks from its previous
		// life; invalidate them and reset exec.
		if f.exec.Load() {
			f.bump()
		} else {
			f.ver.Add(1)
		}
		f.exec.Store(false)
		return id
	}
	id := p.n.Load()
	var c *slotChunk
	if ci := int(id / chunkFrames); id%chunkFrames != 0 {
		c = p.ownChunk(ci)
	} else {
		// The table is full: append a fresh chunk. Appending in place
		// writes only past the length every published table has.
		c = &slotChunk{}
		c.refs.Store(1)
		cs := append(*p.chunks.Load(), c)
		p.chunks.Store(&cs)
	}
	c.slots[id%chunkFrames].fd.Store(newFrameData())
	p.n.Store(id + 1)
	return FrameID(id)
}

// AllocN allocates n zeroed frames.
func (p *PhysMem) AllocN(n int) []FrameID {
	out := make([]FrameID, n)
	for i := range out {
		out[i] = p.Alloc()
	}
	return out
}

// Free returns a frame to the free list. Freeing an out-of-range frame
// panics: it indicates corruption in the caller, not bad input.
func (p *PhysMem) Free(id FrameID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int64(id) >= p.n.Load() {
		panic(fmt.Sprintf("mm: free of invalid frame %d", id))
	}
	p.allocated.Add(-1)
	p.free = append(p.free, id)
}

// chunk returns the chunk holding frame id, lock-free.
func (p *PhysMem) chunk(id FrameID) *slotChunk {
	if int64(id) >= p.n.Load() {
		panic(fmt.Sprintf("mm: access to invalid frame %d", id))
	}
	return (*p.chunks.Load())[id/chunkFrames]
}

// slot returns the frame's slot, lock-free. The slot may sit in a chunk
// shared with fork relatives: callers only read through it.
func (p *PhysMem) slot(id FrameID) *frameSlot { return &p.chunk(id).slots[id%chunkFrames] }

// ownSlot returns the frame's slot in a chunk this machine holds alone,
// copying the chunk first if it is shared. Every path that writes
// through a slot, or caches one in a fork's TLB, must use it.
func (p *PhysMem) ownSlot(id FrameID) *frameSlot {
	c := p.chunk(id)
	if c.refs.Load() != 1 {
		p.mu.Lock()
		c = p.ownChunk(int(id / chunkFrames))
		p.mu.Unlock()
	}
	return &c.slots[id%chunkFrames]
}

// ownChunk returns chunk ci of the table, first replacing it with a
// private copy if another machine shares it: the copy points at the
// same frame records, each of which gains a reference. The copy is
// published before the shared chunk loses this machine's reference, so
// a sharer that becomes the sole holder sees the records' new counts.
// Caller holds p.mu.
func (p *PhysMem) ownChunk(ci int) *slotChunk {
	cs := *p.chunks.Load()
	c := cs[ci]
	if c.refs.Load() == 1 {
		return c
	}
	nc := &slotChunk{}
	nc.refs.Store(1)
	for i := range c.slots {
		fd := c.slots[i].fd.Load()
		if fd == nil {
			break
		}
		fd.refs.Add(1)
		nc.slots[i].fd.Store(fd)
	}
	ncs := slices.Clone(cs)
	ncs[ci] = nc
	p.chunks.Store(&ncs)
	c.unref()
	return nc
}

// unref drops one machine's reference on the chunk. It returns the
// number of frame records whose last reference died with the chunk;
// those go to deadFrames.
func (c *slotChunk) unref() int64 {
	if c.refs.Add(-1) != 0 {
		return 0
	}
	var dead int64
	for i := range c.slots {
		fd := c.slots[i].fd.Load()
		if fd == nil {
			break
		}
		if fd.unref() {
			dead++
		}
	}
	return dead
}

// frame returns the frame's current record, lock-free.
func (p *PhysMem) frame(id FrameID) *frameData { return p.slot(id).load() }

// Frame returns the backing bytes of a frame for reading. The caller must
// not retain the slice across a Free of the same frame.
func (p *PhysMem) Frame(id FrameID) []byte { return p.frame(id).data[:] }

// WritableFrame returns the backing bytes of a frame for writing,
// performing copy-on-write first if the frame is shared with a forked
// sibling machine. All write paths that bypass the TLB (kernel access
// helpers, device DMA, the loader) must use it instead of Frame.
func (p *PhysMem) WritableFrame(id FrameID) []byte { return p.ownSlot(id).private(&p.detaches).data[:] }

// COWDetaches returns how many frames this machine has detached from
// copy-on-write sharing (first writes after a fork). The engine samples
// the counter at round barriers to derive per-round trace events.
func (p *PhysMem) COWDetaches() int64 { return p.detaches.Load() }

// Fork returns a copy-on-write clone of this physical memory: a new
// chunk table pointing at the same chunks, each of which gains a
// reference — O(chunks), no per-frame work. Whichever machine first
// writes a frame, or (in a fork) first translates one, copies that
// frame's chunk. Forking a machine that is concurrently writing memory
// is a data race — sim.Machine.Snapshot freezes the template first.
func (p *PhysMem) Fork() *PhysMem {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := slices.Clone(*p.chunks.Load())
	for _, c := range cs {
		c.refs.Add(1)
	}
	np := &PhysMem{free: slices.Clone(p.free)}
	np.chunks.Store(&cs)
	np.n.Store(p.n.Load())
	np.allocated.Store(p.allocated.Load())
	return np
}

// Release drops this machine's reference on every chunk (fork
// teardown); a chunk whose last reference dies drops its references on
// its frame records. It returns the number of records whose last
// reference died here — frames whose memory becomes collectible. The
// PhysMem must not be used afterwards; a second Release panics.
func (p *PhysMem) Release() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.released {
		panic("mm: PhysMem released twice")
	}
	p.released = true
	var dead int64
	for _, c := range *p.chunks.Load() {
		dead += c.unref()
	}
	return dead
}

// FrameVersion returns the content version of a frame. It only advances
// on writes to exec-mapped frames (and on frame recycling), so decoded
// code cached against a version stays valid exactly while the frame's
// bytes are unchanged.
func (p *PhysMem) FrameVersion(id FrameID) uint64 { return p.frame(id).ver.Load() }

// NoteWrite records that a frame's contents changed. Only exec-mapped
// frames pay the version bump; plain data frames keep writes free.
func (p *PhysMem) NoteWrite(id FrameID) {
	if f := p.frame(id); f.exec.Load() {
		f.bump()
	}
}

// codeWrites counts the frame content-version bumps of the whole
// process (see FrameVersion).
var codeWrites atomic.Uint64

// CodeWrites returns how many times any frame's content version has
// advanced in this process. A reader that sees the same count twice
// knows that no version it watches advanced in between: the machine it
// runs is the only writer of its own frames' versions, and it bumps the
// count with the version.
func CodeWrites() uint64 { return codeWrites.Load() }

// bump advances f's content version.
func (f *frameData) bump() {
	f.ver.Add(1)
	codeWrites.Add(1)
}

// MarkExec flags a frame as reachable through an executable mapping,
// arming write tracking for decoded-code invalidation. The flag
// is sticky until the frame is freed and recycled: conservative, but it
// keeps the check on the store fast path a single atomic load.
func (p *PhysMem) MarkExec(id FrameID) { p.frame(id).exec.Store(true) }

// Live returns the number of currently allocated frames.
func (p *PhysMem) Live() int64 { return p.allocated.Load() }

// MMIOHandler receives 64-bit loads and stores on device-mapped pages.
// off is the byte offset within the mapped MMIO region.
type MMIOHandler interface {
	MMIORead(off uint64) uint64
	MMIOWrite(off uint64, val uint64)
}

type mmioRegion struct {
	base    uint64
	npages  int
	handler MMIOHandler
}

// pte is a leaf page-table entry packed into one word, as a hardware
// walker reads it: the frame number above PageShift, the PageFlags in
// the low byte and ptePresent above them. The zero word maps nothing.
type pte uint64

const ptePresent pte = 1 << 8

func mkPTE(f FrameID, fl PageFlags) pte { return pte(f)<<PageShift | ptePresent | pte(fl) }
func (e pte) frame() FrameID            { return FrameID(e >> PageShift) }
func (e pte) flags() PageFlags          { return PageFlags(e) }

// table is one page-table level. An interior level holds its child
// tables in next; a leaf level holds 512 packed PTEs in ptes, an array
// with no Go pointers in it. Each table has exactly one of the two.
//
// Tables are shared copy-on-write between an address space and its
// forks: only the address space whose tag equals owner may write one in
// place; every other sharer copies it first (AddressSpace.writablePath).
//
// A table that Unmap empties is not dropped: it goes onto its address
// space's spare list for its kind, linked through link, and the next
// missing table of that kind on any path is taken from there. A spare's
// entries are all zero, so reuse needs no clearing.
type table struct {
	next  *[1 << levelBits]*table
	ptes  *[1 << levelBits]pte
	used  int    // number of non-zero entries, for table reclamation
	owner uint64 // tag of the address space that may write this table
	link  *table // next table on a spare list
}

// tags hands out address-space owner tags; 0 is never issued.
var tags atomic.Uint64

// AddressSpace is one virtual address space backed by 5-level page tables.
// Mutating operations take the write lock; translations take the read
// lock only. One goroutine drives a machine, so its own accesses never
// contend; the lock orders an address space against the goroutines that
// fork it (see TranslateEntry). The vCPU TLBs and device IOTLBs in front
// keep even the read lock off the per-access paths.
//
// A re-randomized module lands on a fresh page-table path at every step
// and leaves its old one empty, so the address space keeps the tables
// Unmap reclaims on private spare lists and reuses them instead of
// allocating new 4 KB tables. The lists need no cap: every table on
// them was once in the tree and the tree takes from them before
// allocating, so tree plus spares never exceed the tree's peak size.
type AddressSpace struct {
	mu   sync.RWMutex
	root *table
	phys *PhysMem
	mmio []mmioRegion
	cow  bool   // forked machine: translations resolve frames via slots
	tag  uint64 // owner tag of the tables this address space writes in place
	// spare and spareLeaves head the lists of reclaimed interior and
	// leaf tables; guarded by mu.
	spare, spareLeaves *table

	mapped int           // currently mapped pages
	gen    atomic.Uint64 // bumped on unmap/protect: one per TLB shootdown
}

// NewAddressSpace returns an empty address space over phys.
func NewAddressSpace(phys *PhysMem) *AddressSpace {
	tag := tags.Add(1)
	return &AddressSpace{root: &table{next: new([1 << levelBits]*table), owner: tag}, phys: phys, tag: tag}
}

// Phys returns the physical memory this address space maps.
func (as *AddressSpace) Phys() *PhysMem { return as.phys }

// Generation returns the current shootdown generation. TLBs compare it to
// decide whether their cached translations are stale.
func (as *AddressSpace) Generation() uint64 { return as.gen.Load() }

// Shootdowns returns the cumulative number of TLB shootdowns issued by
// unmap/protect operations (the re-randomization cost §4.3 discusses).
// Each one bumps the generation once, so the count is the generation.
func (as *AddressSpace) Shootdowns() int64 { return int64(as.gen.Load()) }

// MappedPages returns the number of currently mapped pages.
func (as *AddressSpace) MappedPages() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.mapped
}

func checkVA(va uint64) error {
	if va >= MaxVA {
		return &PageFault{VA: va, Access: AccessRead, Reason: "non-canonical address"}
	}
	return nil
}

// indexes splits a VA into its five level indexes, most significant first.
func indexes(va uint64) [numLevels]int {
	var ix [numLevels]int
	shift := PageShift + levelBits*(numLevels-1)
	for i := 0; i < numLevels; i++ {
		ix[i] = int(va>>shift) & (1<<levelBits - 1)
		shift -= levelBits
	}
	return ix
}

// walk returns the leaf PTE for va, zero if none. Caller holds as.mu.
func (as *AddressSpace) walk(va uint64) pte {
	t := as.root
	ix := indexes(va)
	for i := 0; i < numLevels-1; i++ {
		if t = t.next[ix[i]]; t == nil {
			return 0
		}
	}
	return t.ptes[ix[numLevels-1]]
}

// writablePath returns the tables on the path to the leaf for ix, root
// first, each owned by as so the caller may write it in place. A table
// as does not own is shared with a fork (or with the address space this
// one was forked from): it is copied — one table per level, never the
// subtree below it — and the copy installed in its parent. Copying
// changes no translation, so it bumps no generation. Caller holds as.mu
// for writing.
//
// A missing table is taken from the spare list of its kind Unmap fills,
// and created only if the list is empty. Reuse is safe for three
// reasons:
//   - Unmap reclaims only tables on the path writablePath just returned,
//     so every spare carries owner == as.tag.
//   - Fork retags both sides, so a table owned by as.tag was created
//     after the last fork and no other tree can reach it; once detached,
//     no tree reaches it at all. Fork also empties both sides' spare
//     lists, so a spare never carries a tag Fork has retired.
//   - A table is reclaimed only once used drops to 0, so all its
//     entries are zero and reuse needs no clearing.
func (as *AddressSpace) writablePath(ix *[numLevels]int) [numLevels]*table {
	var path [numLevels]*table
	if as.root.owner != as.tag {
		as.root = as.root.copyFor(as.tag)
	}
	t := as.root
	for i := 0; i < numLevels-1; i++ {
		path[i] = t
		c := t.next[ix[i]]
		switch {
		case c == nil:
			c = as.takeSpare(i+1 == numLevels-1)
			t.next[ix[i]] = c
			t.used++
		case c.owner != as.tag:
			c = c.copyFor(as.tag)
			t.next[ix[i]] = c
		}
		t = c
	}
	path[numLevels-1] = t
	return path
}

// takeSpare pops a reclaimed table of the kind asked for, or makes one.
func (as *AddressSpace) takeSpare(leaf bool) *table {
	list := &as.spare
	if leaf {
		list = &as.spareLeaves
	}
	t := *list
	switch {
	case t != nil:
		*list, t.link = t.link, nil
	case leaf:
		t = &table{ptes: new([1 << levelBits]pte), owner: as.tag}
	default:
		t = &table{next: new([1 << levelBits]*table), owner: as.tag}
	}
	return t
}

// copyFor returns a copy of t owned by tag. A leaf is copied as one
// array. An interior copy shares t's child tables; tables are sparse,
// so it copies only the used entries into a zeroed array: a whole-array
// copy would pay a GC write barrier on every one of the 512 slots while
// a cycle runs.
func (t *table) copyFor(tag uint64) *table {
	nt := &table{used: t.used, owner: tag}
	if t.ptes != nil {
		ptes := *t.ptes
		nt.ptes = &ptes
		return nt
	}
	nt.next = new([1 << levelBits]*table)
	for i, n := 0, 0; n < t.used; i++ {
		if c := t.next[i]; c != nil {
			nt.next[i] = c
			n++
		}
	}
	return nt
}

// Map installs a translation for the page containing va. The address must
// be page-aligned and not already mapped. W^X is enforced: requesting
// Write|Exec together is rejected, mirroring the kernel policy Adelie
// assumes (§2.1: data pages are NX; GOT pages are write-protected).
func (as *AddressSpace) Map(va uint64, frame FrameID, flags PageFlags) error {
	if va&PageMask != 0 {
		return fmt.Errorf("mm: Map: unaligned va %#x", va)
	}
	if err := checkVA(va); err != nil {
		return err
	}
	if flags&FlagWrite != 0 && flags&FlagExec != 0 {
		return fmt.Errorf("mm: Map: W^X violation at %#x", va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.walk(va) != 0 {
		return fmt.Errorf("mm: Map: va %#x already mapped", va)
	}
	ix := indexes(va)
	t := as.writablePath(&ix)[numLevels-1]
	t.ptes[ix[numLevels-1]] = mkPTE(frame, flags)
	t.used++
	as.mapped++
	if flags&FlagExec != 0 {
		as.phys.MarkExec(frame)
	}
	return nil
}

// Unmap removes the translation for the page containing va and issues a
// TLB shootdown. It returns the frame that was mapped there; the caller
// decides whether to free it (zero-copy remapping keeps frames alive while
// both old and new mappings exist). Tables the unmap empties are
// detached bottom-up and kept on the spare lists for writablePath to
// reuse; every one of them is on the path writablePath returned, so it
// is owned by as and reachable from no other tree.
func (as *AddressSpace) Unmap(va uint64) (FrameID, error) {
	if va&PageMask != 0 {
		return NoFrame, fmt.Errorf("mm: Unmap: unaligned va %#x", va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	e := as.walk(va)
	if e == 0 {
		return NoFrame, fmt.Errorf("mm: Unmap: va %#x not mapped", va)
	}
	ix := indexes(va)
	path := as.writablePath(&ix)
	t := path[numLevels-1]
	t.ptes[ix[numLevels-1]] = 0
	t.used--
	as.mapped--
	// Reclaim now-empty tables, bottom-up.
	for i := numLevels - 2; i >= 0 && t.used == 0; i-- {
		parent := path[i]
		if t.ptes != nil {
			t.link, as.spareLeaves = as.spareLeaves, t
		} else {
			t.link, as.spare = as.spare, t
		}
		parent.next[ix[i]] = nil
		parent.used--
		t = parent
	}
	as.gen.Add(1)
	return e.frame(), nil
}

// Protect changes the permissions of an already-mapped page (e.g. the
// loader write-protecting GOT/PLT pages after relocation, §4.1). Issues a
// TLB shootdown.
func (as *AddressSpace) Protect(va uint64, flags PageFlags) error {
	if flags&FlagWrite != 0 && flags&FlagExec != 0 {
		return fmt.Errorf("mm: Protect: W^X violation at %#x", va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	e := as.walk(va &^ PageMask)
	if e == 0 {
		return fmt.Errorf("mm: Protect: va %#x not mapped", va)
	}
	ix := indexes(va)
	as.writablePath(&ix)[numLevels-1].ptes[ix[numLevels-1]] = mkPTE(e.frame(), flags)
	if flags&FlagExec != 0 {
		as.phys.MarkExec(e.frame())
	}
	as.gen.Add(1)
	return nil
}

// Lookup returns the frame and flags mapping the page containing va.
func (as *AddressSpace) Lookup(va uint64) (FrameID, PageFlags, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	e := as.walk(va &^ PageMask)
	if e == 0 {
		return NoFrame, 0, false
	}
	return e.frame(), e.flags(), true
}

// Entry is one resolved translation, as cached by TLBs and consumed by
// the CPU fast paths. A direct entry points at the frame record, so
// loads, stores and instruction fetch touch memory without re-walking
// the page tables or locking the allocator. Every non-MMIO translation
// of a never-forked machine is direct, and so is every write
// translation a TLB hands out (TLB.Entry detaches the frame first). A
// fork's other translations carry the frame's slot and resolve the
// current record on every access, so a detach by a device or a sibling
// vCPU shows without TLB shootdowns. The slot must be the fork's own
// (PhysMem.ownSlot), never one in a chunk still shared with the
// template: a detach through any other path copies the chunk first and
// swaps the record in the copy, so an entry holding the shared chunk's
// slot would keep returning pre-detach bytes.
//
// A direct entry stays valid until its machine is forked: only a fork
// makes a private record shared again, and sim.Machine.Snapshot freezes
// a machine before its first fork.
//
// Two caches hold entries: a vCPU's TLB and a device's IOTLB. Each fills
// through TranslateEntry on the address space of the machine it serves
// and drops everything when that space's Generation moves. An entry
// never crosses machines: a fork's TLB re-resolves its template's pages
// (TLB.CloneFor), and a fork's device starts with no IOTLB. A device
// cache reads through its entries but writes through the machine's own
// slot (PhysMem.WritableFrame's path), re-pointing the entry at the
// record it wrote: a direct record may be a snapshot template's, shared
// with its forks, and must not be written in place.
type Entry struct {
	Frame FrameID
	Flags PageFlags
	fd    *frameData // direct record; nil for MMIO pages and slot entries
	slot  *frameSlot // a fork's read or fetch translation; nil otherwise
}

// rec resolves the entry's current frame record (nil for MMIO pages).
func (e Entry) rec() *frameData {
	if e.fd != nil {
		return e.fd
	}
	if e.slot != nil {
		return e.slot.load()
	}
	return nil
}

// Bytes returns the frame's backing bytes for reading (nil for MMIO
// pages).
func (e Entry) Bytes() []byte {
	fd := e.rec()
	if fd == nil {
		return nil
	}
	return fd.data[:]
}

// WritableBytes returns a write translation's backing bytes (nil for
// MMIO pages). TLB.Entry makes every write translation direct; a slot
// entry, whose frame may still be shared, returns nil.
func (e Entry) WritableBytes() []byte {
	if e.fd == nil {
		return nil
	}
	return e.fd.data[:]
}

// CodeWindow returns the frame's bytes from off to the end of the page —
// the window within which a basic block can be decoded without a second
// translation (a block never outlives its page: crossing the boundary
// would need the next frame's translation and content version). Nil for
// MMIO pages.
func (e Entry) CodeWindow(off int) []byte {
	fd := e.rec()
	if fd == nil {
		return nil
	}
	return fd.data[off:]
}

// Version returns the frame's content version (0 for MMIO pages).
func (e Entry) Version() uint64 {
	fd := e.rec()
	if fd == nil {
		return 0
	}
	return fd.ver.Load()
}

// FrameRef is a stable one-word reference to a frame's content version.
// Execution caches that link decoded code across translations (superblock
// chain links) hold one per cached successor so they can revalidate the
// frame's bytes with a single atomic load — no page walk, no TLB probe.
// A recycled frame bumps its version on reallocation, and copy-on-write
// detach bumps it past the shared record's, so a stale ref can never
// validate against a frame's next life.
type FrameRef struct {
	fd   *frameData // a direct entry's record; nil otherwise
	slot *frameSlot // a slot entry's slot; nil otherwise
}

// Ref returns the frame-version handle for this translation.
func (e Entry) Ref() FrameRef { return FrameRef{fd: e.fd, slot: e.slot} }

// Version returns the referenced frame's current content version (0 for
// the zero ref and MMIO pages).
func (r FrameRef) Version() uint64 {
	fd := r.fd
	if fd == nil {
		if r.slot == nil {
			return 0
		}
		fd = r.slot.load()
	}
	return fd.ver.Load()
}

// NoteWrite records a content change through this translation (decoded
// instruction caches watch exec-mapped frames; see PhysMem.NoteWrite).
func (e Entry) NoteWrite() {
	if fd := e.rec(); fd != nil && fd.exec.Load() {
		fd.bump()
	}
}

// Translate checks permissions and returns the frame for an access at va.
func (as *AddressSpace) Translate(va uint64, access Access) (FrameID, PageFlags, error) {
	e, err := as.TranslateEntry(va, access)
	return e.Frame, e.Flags, err
}

// TranslateEntry is Translate returning the full fast-path Entry. It
// takes only the read lock. A machine's lanes run on one goroutine, so
// the lock no longer separates vCPUs; it is kept for the path that
// still reaches an address space from several goroutines: forking.
// Pool forks of one template (RunSweep workers, service requests) run
// Fork concurrently, each retagging the template under the write lock,
// and the lock makes a walk safe against that and against any mutator
// without a rule that only the driving goroutine may translate. The
// per-access paths (vCPU TLBs, device IOTLBs) take it only on a miss.
func (as *AddressSpace) TranslateEntry(va uint64, access Access) (Entry, error) {
	if err := checkVA(va); err != nil {
		return Entry{Frame: NoFrame}, err
	}
	as.mu.RLock()
	e := as.walk(va &^ PageMask)
	as.mu.RUnlock()
	if e == 0 {
		return Entry{Frame: NoFrame}, &PageFault{VA: va, Access: access, Reason: "not mapped"}
	}
	if err := checkPerm(va, e.flags(), access); err != nil {
		return Entry{Frame: NoFrame}, err
	}
	out := Entry{Frame: e.frame(), Flags: e.flags()}
	if out.Flags&FlagMMIO == 0 {
		if as.cow {
			out.slot = as.phys.ownSlot(out.Frame)
		} else {
			out.fd = as.phys.frame(out.Frame)
		}
	}
	return out, nil
}

func checkPerm(va uint64, flags PageFlags, access Access) error {
	switch access {
	case AccessWrite:
		if flags&FlagWrite == 0 {
			return &PageFault{VA: va, Access: access, Reason: "write to read-only page"}
		}
	case AccessExec:
		if flags&FlagExec == 0 {
			return &PageFault{VA: va, Access: access, Reason: "NX: execute of non-executable page"}
		}
		if flags&FlagUser != 0 {
			// SMAP/SMEP analogue: the simulated kernel never executes
			// user pages (§2.1: "Adelie assumes this feature is enabled").
			return &PageFault{VA: va, Access: access, Reason: "SMEP: kernel execution of user page"}
		}
	}
	return nil
}

// MapRegion allocates npages fresh frames and maps them contiguously at
// base. It returns the frames so callers can later remap or free them.
func (as *AddressSpace) MapRegion(base uint64, npages int, flags PageFlags) ([]FrameID, error) {
	frames := make([]FrameID, 0, npages)
	for i := 0; i < npages; i++ {
		f := as.phys.Alloc()
		if err := as.Map(base+uint64(i)*PageSize, f, flags); err != nil {
			// Roll back partial work.
			as.phys.Free(f)
			for j, g := range frames {
				if _, uerr := as.Unmap(base + uint64(j)*PageSize); uerr == nil {
					as.phys.Free(g)
				}
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// UnmapRegion removes npages translations starting at base. If freeFrames
// is true the backing frames are returned to the allocator (used when the
// last mapping of a region dies; zero-copy remaps pass false).
func (as *AddressSpace) UnmapRegion(base uint64, npages int, freeFrames bool) error {
	for i := 0; i < npages; i++ {
		f, err := as.Unmap(base + uint64(i)*PageSize)
		if err != nil {
			return err
		}
		if freeFrames {
			as.phys.Free(f)
		}
	}
	return nil
}

// RegisterMMIO maps npages at base as an MMIO region served by handler.
// MMIO pages are readable and writable but never executable.
func (as *AddressSpace) RegisterMMIO(base uint64, npages int, handler MMIOHandler) error {
	if base&PageMask != 0 {
		return fmt.Errorf("mm: RegisterMMIO: unaligned base %#x", base)
	}
	for i := 0; i < npages; i++ {
		// MMIO pages get a dedicated dummy frame so translation succeeds.
		f := as.phys.Alloc()
		if err := as.Map(base+uint64(i)*PageSize, f, FlagWrite|FlagMMIO); err != nil {
			return err
		}
	}
	as.mu.Lock()
	as.mmio = append(as.mmio, mmioRegion{base: base, npages: npages, handler: handler})
	as.mu.Unlock()
	return nil
}

// Fork returns a copy-on-write clone of this address space over phys
// (which must be the matching PhysMem.Fork result: the FrameID namespace
// carries over verbatim). Fork is O(1): the clone starts on the parent's
// page-table tree, and parent and clone both take fresh owner tags, so
// neither may write a table of the shared tree in place any more — the
// first Map, Unmap or Protect on either side copies just the tables on
// its path (writablePath). Both sides start with no spare tables: the
// parent's carry the tag Fork retires, and a snapshot template, forked
// many times and never written again, would pin them for its lifetime
// (see writablePath). The clone runs in COW mode:
// translations resolve frames through its own slots (PhysMem.ownSlot)
// so post-fork writes are visible to every cached entry. MMIO regions
// are copied with their handlers still pointing at the template's
// devices; the bus clone rebinds them via RebindMMIO.
func (as *AddressSpace) Fork(phys *PhysMem) *AddressSpace {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.tag = tags.Add(1)
	as.spare, as.spareLeaves = nil, nil
	nas := &AddressSpace{
		root:   as.root,
		phys:   phys,
		mmio:   append([]mmioRegion(nil), as.mmio...),
		cow:    true,
		tag:    tags.Add(1),
		mapped: as.mapped,
	}
	nas.gen.Store(as.gen.Load())
	return nas
}

// RebindMMIO replaces the handler of the MMIO region registered at base —
// used when forking a machine to point the cloned address space's device
// windows at the cloned devices instead of the template's.
func (as *AddressSpace) RebindMMIO(base uint64, handler MMIOHandler) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i := range as.mmio {
		if as.mmio[i].base == base {
			as.mmio[i].handler = handler
			return nil
		}
	}
	return fmt.Errorf("mm: RebindMMIO: no region at %#x", base)
}

// mmioFor returns the handler and region-relative offset for va, if va
// falls inside a registered MMIO region.
func (as *AddressSpace) mmioFor(va uint64) (MMIOHandler, uint64, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, r := range as.mmio {
		end := r.base + uint64(r.npages)*PageSize
		if va >= r.base && va < end {
			return r.handler, va - r.base, true
		}
	}
	return nil, 0, false
}
