package smr

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func allSchemes(slots int) []Reclaimer {
	return []Reclaimer{NewHyaline(slots), NewEBR(slots), NewQSBR(slots)}
}

func TestRetireWithNoReadersFreesImmediately(t *testing.T) {
	for _, r := range allSchemes(4) {
		t.Run(r.Name(), func(t *testing.T) {
			freed := false
			r.Retire(func() { freed = true })
			r.Flush()
			if !freed {
				t.Fatal("block not freed with no active readers")
			}
			if s := r.Stats(); s.Retired != 1 || s.Freed != 1 || s.Delta() != 0 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

func TestRetireDuringCriticalSectionIsDeferred(t *testing.T) {
	for _, r := range allSchemes(4) {
		t.Run(r.Name(), func(t *testing.T) {
			freed := false
			r.Enter(1)
			r.Retire(func() { freed = true })
			r.Flush()
			if freed {
				t.Fatal("block freed while a pre-retire reader is active")
			}
			r.Leave(1)
			r.Flush()
			if !freed {
				t.Fatal("block not freed after the last reader left")
			}
		})
	}
}

func TestLateReaderDoesNotBlockReclamation(t *testing.T) {
	for _, r := range allSchemes(4) {
		t.Run(r.Name(), func(t *testing.T) {
			freed := false
			r.Retire(func() { freed = true })
			r.Enter(2) // enters after the retire
			r.Flush()
			r.Leave(2)
			r.Flush()
			if !freed {
				t.Fatal("reader that entered after retire delayed reclamation")
			}
		})
	}
}

func TestNestedCriticalSections(t *testing.T) {
	for _, r := range allSchemes(2) {
		t.Run(r.Name(), func(t *testing.T) {
			freed := false
			r.Enter(0)
			r.Enter(0) // nested (e.g. softirq handler re-entering, §3.4)
			r.Retire(func() { freed = true })
			r.Leave(0)
			r.Flush()
			if freed {
				t.Fatal("freed before outermost Leave")
			}
			r.Leave(0)
			r.Flush()
			if !freed {
				t.Fatal("not freed after outermost Leave")
			}
		})
	}
}

func TestUnmatchedLeavePanics(t *testing.T) {
	for _, r := range allSchemes(1) {
		t.Run(r.Name(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Leave without Enter must panic")
				}
			}()
			r.Leave(0)
		})
	}
}

func TestMultipleRetiresOrderIndependent(t *testing.T) {
	for _, r := range allSchemes(4) {
		t.Run(r.Name(), func(t *testing.T) {
			var freed atomic.Int64
			r.Enter(0)
			for i := 0; i < 10; i++ {
				r.Retire(func() { freed.Add(1) })
			}
			r.Enter(1)
			for i := 0; i < 10; i++ {
				r.Retire(func() { freed.Add(1) })
			}
			r.Leave(1)
			r.Leave(0)
			r.Flush()
			if freed.Load() != 20 {
				t.Fatalf("freed %d of 20", freed.Load())
			}
		})
	}
}

func TestEBRStragglerPinsEpoch(t *testing.T) {
	e := NewEBR(2)
	freed := false
	e.Enter(0) // straggler pins the current epoch
	e.Retire(func() { freed = true })
	// Drive many retire/flush cycles; nothing may free while slot 0 sits
	// in its critical section.
	for i := 0; i < 10; i++ {
		e.Flush()
	}
	if freed {
		t.Fatal("EBR freed under a pinned epoch")
	}
	e.Leave(0)
	e.Flush()
	if !freed {
		t.Fatal("EBR failed to free after the straggler left")
	}
}

func TestQSBRNeedsQuiescence(t *testing.T) {
	q := NewQSBR(2)
	freed := false
	q.Retire(func() { freed = true })
	// No slot has passed a quiescent state (a critical section's Leave)
	// since the retire interval; without Flush (which forgives idle
	// slots), nothing may be freed until both have.
	q.Enter(0)
	q.Leave(0)
	if freed {
		t.Fatal("QSBR freed before all slots quiesced")
	}
	q.Enter(1)
	q.Leave(1)
	if !freed {
		t.Fatal("QSBR did not free after all slots quiesced")
	}
}

func TestQSBRActiveReaderBlocks(t *testing.T) {
	q := NewQSBR(2)
	freed := false
	q.Enter(0)
	q.Retire(func() { freed = true })
	q.Flush() // must not treat the active slot 0 as quiescent
	if freed {
		t.Fatal("QSBR freed while slot 0 was inside a critical section")
	}
	q.Leave(0)
	q.Flush()
	if !freed {
		t.Fatal("QSBR did not free after reader left")
	}
}

func TestHyalineReclaimsInLeaveWithoutFlush(t *testing.T) {
	// The property that makes Hyaline suitable for the kernel: no external
	// driving needed — the departing reader performs the reclamation.
	h := NewHyaline(2)
	freed := false
	h.Enter(0)
	h.Retire(func() { freed = true })
	h.Leave(0) // note: no Flush anywhere
	if !freed {
		t.Fatal("Hyaline did not reclaim in Leave")
	}
}

// TestConcurrentSafety is the core safety property under real parallelism:
// readers hold a pointer to a shared block across their critical section;
// the writer continuously swaps the block and retires the old one. A
// reader observing a freed block is a reclamation bug.
func TestConcurrentSafety(t *testing.T) {
	type block struct{ freed atomic.Bool }
	const (
		readers = 4
		swaps   = 2000
	)
	for _, r := range allSchemes(readers + 1) {
		t.Run(r.Name(), func(t *testing.T) {
			var current atomic.Pointer[block]
			current.Store(&block{})
			var stop atomic.Bool
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					for !stop.Load() {
						r.Enter(slot)
						b := current.Load()
						if b.freed.Load() {
							t.Error("reader observed a freed block")
							r.Leave(slot)
							return
						}
						// Re-check after some delay within the section.
						for j := 0; j < 10; j++ {
							if b.freed.Load() {
								t.Error("block freed inside a critical section")
								r.Leave(slot)
								return
							}
						}
						r.Leave(slot)
					}
				}(i)
			}
			for i := 0; i < swaps; i++ {
				old := current.Swap(&block{})
				r.Retire(func() { old.freed.Store(true) })
				if i%64 == 0 {
					r.Flush()
				}
			}
			stop.Store(true)
			wg.Wait()
			r.Flush()
			// With all readers gone, everything must drain.
			if d := r.Stats().Delta(); d != 0 {
				t.Fatalf("delta = %d after drain, want 0", d)
			}
		})
	}
}

// TestQuickRandomSchedule property: under arbitrary interleavings of
// enter/leave/retire on a single goroutine, (a) nothing is freed while any
// reader that entered before the retire remains active, and (b) everything
// is freed once all sections close.
func TestQuickRandomSchedule(t *testing.T) {
	for _, name := range []string{"hyaline", "ebr", "qsbr"} {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				const slots = 3
				var r Reclaimer
				switch name {
				case "hyaline":
					r = NewHyaline(slots)
				case "ebr":
					r = NewEBR(slots)
				case "qsbr":
					r = NewQSBR(slots)
				}
				rng := rand.New(rand.NewSource(seed))
				nesting := [slots]int{}
				type retired struct {
					freed    *bool
					blockers map[int]bool // slots active at retire time
				}
				var live []retired
				ok := true
				checkInvariant := func() {
					for _, re := range live {
						if !*re.freed {
							continue
						}
						// Freed: no blocker may still be in the critical
						// section it held at retire time. Conservative
						// check: freed while ANY blocker has nesting > 0
						// continuously since retire is a violation. We
						// track that by clearing blockers on leave.
						for s := range re.blockers {
							if nesting[s] > 0 {
								ok = false
							}
						}
					}
				}
				for i := 0; i < 200 && ok; i++ {
					switch rng.Intn(4) {
					case 0: // enter
						s := rng.Intn(slots)
						r.Enter(s)
						nesting[s]++
					case 1: // leave
						s := rng.Intn(slots)
						if nesting[s] > 0 {
							r.Leave(s)
							nesting[s]--
							if nesting[s] == 0 {
								for j := range live {
									delete(live[j].blockers, s)
								}
							}
						}
					case 2: // retire
						freed := new(bool)
						blockers := map[int]bool{}
						for s := 0; s < slots; s++ {
							if nesting[s] > 0 {
								blockers[s] = true
							}
						}
						r.Retire(func() { *freed = true })
						live = append(live, retired{freed: freed, blockers: blockers})
					case 3:
						r.Flush()
					}
					checkInvariant()
				}
				// Drain: close all sections, flush, everything freed.
				for s := 0; s < slots; s++ {
					for nesting[s] > 0 {
						r.Leave(s)
						nesting[s]--
					}
				}
				r.Flush()
				return ok && r.Stats().Delta() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGuarded(t *testing.T) {
	h := NewHyaline(1)
	func() {
		defer Guarded(h, 0)()
		if h.slots[0].nesting != 1 {
			t.Fatal("Guarded did not enter")
		}
	}()
	if h.slots[0].nesting != 0 {
		t.Fatal("Guarded did not leave")
	}
}

func BenchmarkEnterLeave(b *testing.B) {
	for _, r := range allSchemes(1) {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Enter(0)
				r.Leave(0)
			}
		})
	}
}

func BenchmarkRetire(b *testing.B) {
	for _, r := range allSchemes(1) {
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			nop := func() {}
			for i := 0; i < b.N; i++ {
				r.Retire(nop)
			}
			r.Flush()
		})
	}
}
