package smr

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Hyaline implements the reclamation scheme Adelie integrates into the
// Linux kernel. Its distinguishing property — the reason the paper picks
// it over plain EBR — is that it is context-agnostic: nothing needs to
// periodically advance an epoch, and reclamation work is performed by
// readers themselves as they leave critical sections, so it drops into an
// environment with arbitrary thread management (kernel calls arriving from
// any process) without hooks into the scheduler.
//
// Structure: each slot (CPU) keeps a list of batches that were retired
// while that slot had a live critical section. A retired batch holds one
// reference per slot that was active at retirement time, plus one for the
// retirer. Each departing reader drops the references its slot holds; the
// batch's free functions run when the count reaches zero. Slots are
// protected by per-slot locks rather than the original's packed-word CAS;
// the protocol (who holds references, when they are dropped) is the
// paper's, and per-slot locking preserves its per-CPU contention profile.
type Hyaline struct {
	slots []hyalineSlot
	counters
}

type hyalineSlot struct {
	mu      sync.Mutex
	nesting int
	pending []*batch // batches this slot must release on Leave
	_       [24]byte // keep slots on separate cache lines in spirit
}

type batch struct {
	refs  int64
	frees []func()
}

// NewHyaline returns a Hyaline reclaimer with the given number of slots
// (one per simulated CPU).
func NewHyaline(slots int) *Hyaline {
	if slots <= 0 {
		panic("smr: NewHyaline needs at least one slot")
	}
	return &Hyaline{slots: make([]hyalineSlot, slots)}
}

// Name implements Reclaimer.
func (h *Hyaline) Name() string { return "hyaline" }

// Enter implements Reclaimer (mr_start).
func (h *Hyaline) Enter(slot int) {
	s := &h.slots[slot]
	s.mu.Lock()
	s.nesting++
	s.mu.Unlock()
}

// Leave implements Reclaimer (mr_finish). The departing reader releases
// every batch retired during its critical section — this is where Hyaline
// does its reclamation work.
func (h *Hyaline) Leave(slot int) {
	s := &h.slots[slot]
	s.mu.Lock()
	if s.nesting == 0 {
		s.mu.Unlock()
		panic("smr: Hyaline.Leave without matching Enter")
	}
	s.nesting--
	var release []*batch
	if s.nesting == 0 && len(s.pending) > 0 {
		release = s.pending
		s.pending = nil
	}
	s.mu.Unlock()
	for _, b := range release {
		h.unref(b)
	}
}

// Retire implements Reclaimer (mr_retire). The batch is handed one
// reference per currently-active slot plus one for the retirer; if no slot
// is active the free function runs immediately.
func (h *Hyaline) Retire(free func()) {
	h.retired.Add(1)
	b := &batch{refs: 1, frees: []func(){free}}
	for i := range h.slots {
		s := &h.slots[i]
		s.mu.Lock()
		if s.nesting > 0 {
			// Atomic: a reader appended to an earlier slot may already be
			// decrementing concurrently. The retirer's own reference keeps
			// the count positive until the loop finishes, so the batch
			// cannot be freed early.
			atomic.AddInt64(&b.refs, 1)
			s.pending = append(s.pending, b)
		}
		s.mu.Unlock()
	}
	h.unref(b) // drop the retirer's reference
}

func (h *Hyaline) unref(b *batch) {
	// refs is only touched under slot locks at append time and here; a
	// plain mutex-free decrement would race with concurrent Leave calls,
	// so serialize through a batch-local convention: the batch pointer is
	// shared, use atomic arithmetic.
	if dec(&b.refs) == 0 {
		for _, f := range b.frees {
			f()
			h.freed.Add(1)
		}
		b.frees = nil
	}
}

// Flush implements Reclaimer. Hyaline needs no external driving: anything
// reclaimable has already been reclaimed by departing readers, so Flush is
// a no-op.
func (h *Hyaline) Flush() {}

// Stats implements Reclaimer.
func (h *Hyaline) Stats() Stats { return h.counters.stats() }

// ForkQuiescent implements Forker: it returns a fresh Hyaline with the
// same slot count and cumulative counters, for a forked machine. Hyaline
// only holds pending batches while some slot is inside a critical
// section (Retire with no active readers frees immediately, and the last
// Leave drains a slot's list), so quiescence — no active readers — is
// exactly the no-pending-work condition the fork needs.
func (h *Hyaline) ForkQuiescent() (Reclaimer, error) {
	for i := range h.slots {
		s := &h.slots[i]
		s.mu.Lock()
		nesting, npending := s.nesting, len(s.pending)
		s.mu.Unlock()
		if nesting > 0 || npending > 0 {
			return nil, fmt.Errorf("smr: fork: slot %d not quiescent (nesting=%d, pending=%d)", i, nesting, npending)
		}
	}
	nh := NewHyaline(len(h.slots))
	nh.retired.Store(h.retired.Load())
	nh.freed.Store(h.freed.Load())
	return nh, nil
}
