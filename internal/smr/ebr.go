package smr

import (
	"sync"
	"sync/atomic"
)

func dec(p *int64) int64 { return atomic.AddInt64(p, -1) }

// EBR is classic three-epoch reclamation [Fraser 2004], the scheme the
// paper cites as Hyaline's closest relative. A global epoch advances only
// when every active reader has observed it; blocks retired in epoch e are
// safe once the global epoch reaches e+2.
//
// The integration cost the paper calls out is visible in the API: nothing
// is freed unless someone keeps calling Retire or Flush to attempt epoch
// advancement, whereas Hyaline reclaims in Leave.
type EBR struct {
	mu          sync.Mutex
	globalEpoch uint64
	slots       []ebrSlot
	limbo       [3][]func() // limbo[e%3] = blocks retired in epoch e
	counters
}

type ebrSlot struct {
	active  int
	epoch   uint64
	nesting int
}

// NewEBR returns an EBR reclaimer with the given number of slots.
func NewEBR(slots int) *EBR {
	if slots <= 0 {
		panic("smr: NewEBR needs at least one slot")
	}
	return &EBR{slots: make([]ebrSlot, slots)}
}

// Name implements Reclaimer.
func (e *EBR) Name() string { return "ebr" }

// Enter implements Reclaimer (mr_start): the slot pins the current epoch.
func (e *EBR) Enter(slot int) {
	e.mu.Lock()
	s := &e.slots[slot]
	if s.nesting == 0 {
		s.active = 1
		s.epoch = e.globalEpoch
	}
	s.nesting++
	e.mu.Unlock()
}

// Leave implements Reclaimer (mr_finish).
func (e *EBR) Leave(slot int) {
	e.mu.Lock()
	s := &e.slots[slot]
	if s.nesting == 0 {
		e.mu.Unlock()
		panic("smr: EBR.Leave without matching Enter")
	}
	s.nesting--
	if s.nesting == 0 {
		s.active = 0
	}
	e.mu.Unlock()
}

// Retire implements Reclaimer (mr_retire): the block joins the current
// epoch's limbo list, and an advancement attempt runs opportunistically.
func (e *EBR) Retire(free func()) {
	e.retired.Add(1)
	e.mu.Lock()
	e.limbo[e.globalEpoch%3] = append(e.limbo[e.globalEpoch%3], free)
	freed := e.tryAdvanceLocked()
	e.mu.Unlock()
	e.runFrees(freed)
}

// Flush implements Reclaimer: repeatedly attempts epoch advancement until
// either every limbo list is empty or a straggler blocks progress. Three
// successful advances always suffice to drain all three limbo lists.
func (e *EBR) Flush() {
	for i := 0; i < 3; i++ {
		e.mu.Lock()
		before := e.globalEpoch
		freed := e.tryAdvanceLocked()
		advanced := e.globalEpoch != before
		pending := len(e.limbo[0]) + len(e.limbo[1]) + len(e.limbo[2])
		e.mu.Unlock()
		e.runFrees(freed)
		if !advanced || pending == 0 {
			return
		}
	}
}

// tryAdvanceLocked advances the global epoch if every active slot has
// caught up, returning the limbo list that became safe. Caller holds e.mu.
func (e *EBR) tryAdvanceLocked() []func() {
	for i := range e.slots {
		s := &e.slots[i]
		if s.active == 1 && s.epoch != e.globalEpoch {
			return nil // a straggler pins the old epoch
		}
	}
	e.globalEpoch++
	// Blocks retired two epochs ago can no longer be observed: every
	// reader active then has either left or re-pinned a newer epoch.
	idx := (e.globalEpoch + 1) % 3 // == (globalEpoch-2) mod 3
	freed := e.limbo[idx]
	e.limbo[idx] = nil
	return freed
}

func (e *EBR) runFrees(fs []func()) {
	for _, f := range fs {
		f()
		e.freed.Add(1)
	}
}

// Stats implements Reclaimer.
func (e *EBR) Stats() Stats { return e.counters.stats() }

// QSBR is quiescent-state-based reclamation — the scheme CodeArmor uses
// (paper §2.7). Unlike Hyaline and EBR it has no Enter/Leave tracking at
// all: reclamation relies on every slot explicitly announcing that it has
// passed through a quiescent state (a point with no references to shared
// blocks). That announcement requirement is the integration burden the
// paper highlights: in a kernel, finding guaranteed-quiescent points for
// arbitrary call chains is hard.
//
// Enter/Leave are accepted (so QSBR satisfies Reclaimer and can be swapped
// into the re-randomizer for ablation) and are interpreted conservatively:
// Leave on a slot counts as that slot passing a quiescent state.
type QSBR struct {
	mu       sync.Mutex
	slots    []qsbrSlot
	interval uint64
	waiting  []qsbrGen
	counters
}

type qsbrSlot struct {
	lastQuiescent uint64
	nesting       int
}

type qsbrGen struct {
	gen   uint64
	frees []func()
}

// NewQSBR returns a QSBR reclaimer with the given number of slots.
func NewQSBR(slots int) *QSBR {
	if slots <= 0 {
		panic("smr: NewQSBR needs at least one slot")
	}
	return &QSBR{slots: make([]qsbrSlot, slots), interval: 1}
}

// Name implements Reclaimer.
func (q *QSBR) Name() string { return "qsbr" }

// Enter implements Reclaimer.
func (q *QSBR) Enter(slot int) {
	q.mu.Lock()
	q.slots[slot].nesting++
	q.mu.Unlock()
}

// Leave implements Reclaimer; leaving the outermost critical section is a
// quiescent state for the slot.
func (q *QSBR) Leave(slot int) {
	q.mu.Lock()
	s := &q.slots[slot]
	if s.nesting == 0 {
		q.mu.Unlock()
		panic("smr: QSBR.Leave without matching Enter")
	}
	s.nesting--
	var freed []func()
	if s.nesting == 0 {
		s.lastQuiescent = q.interval
		freed = q.collectLocked()
	}
	q.mu.Unlock()
	q.runFrees(freed)
}

// Retire implements Reclaimer: the block waits until every slot passes a
// quiescent state after the current interval.
func (q *QSBR) Retire(free func()) {
	q.retired.Add(1)
	q.mu.Lock()
	q.interval++
	q.waiting = append(q.waiting, qsbrGen{gen: q.interval, frees: []func(){free}})
	freed := q.collectLocked()
	q.mu.Unlock()
	q.runFrees(freed)
}

// Flush implements Reclaimer. It treats idle slots (no open critical
// section) as quiescent — a deliberate convenience for tests and the
// simulator's single-threaded phases.
func (q *QSBR) Flush() {
	q.mu.Lock()
	for i := range q.slots {
		if q.slots[i].nesting == 0 {
			q.slots[i].lastQuiescent = q.interval
		}
	}
	freed := q.collectLocked()
	q.mu.Unlock()
	q.runFrees(freed)
}

// collectLocked frees every waiting generation that all slots have
// quiesced past. Caller holds q.mu.
func (q *QSBR) collectLocked() []func() {
	minQ := ^uint64(0)
	for i := range q.slots {
		s := &q.slots[i]
		if s.nesting > 0 {
			// An active reader has not quiesced since it entered.
			if s.lastQuiescent < minQ {
				minQ = s.lastQuiescent
			}
			continue
		}
		if s.lastQuiescent < minQ {
			minQ = s.lastQuiescent
		}
	}
	var out []func()
	rest := q.waiting[:0]
	for _, g := range q.waiting {
		if g.gen <= minQ {
			out = append(out, g.frees...)
		} else {
			rest = append(rest, g)
		}
	}
	q.waiting = rest
	return out
}

func (q *QSBR) runFrees(fs []func()) {
	for _, f := range fs {
		f()
		q.freed.Add(1)
	}
}

// Stats implements Reclaimer.
func (q *QSBR) Stats() Stats { return q.counters.stats() }
