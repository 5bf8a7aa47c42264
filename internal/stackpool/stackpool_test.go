package stackpool

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// fakeAlloc hands out distinct "stack tops" and tracks liveness.
type fakeAlloc struct {
	mu   sync.Mutex
	next uint64
	live map[uint64]bool
}

func newFakeAlloc() *fakeAlloc {
	return &fakeAlloc{next: 0x1000, live: map[uint64]bool{}}
}

func (f *fakeAlloc) AllocStack() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next += 0x10000
	f.live[f.next] = true
	return f.next, nil
}

func (f *fakeAlloc) FreeStack(top uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.live[top] {
		panic("free of unknown or double-freed stack")
	}
	delete(f.live, top)
	return nil
}

func (f *fakeAlloc) liveCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.live)
}

func TestGetAllocatesOnEmpty(t *testing.T) {
	fa := newFakeAlloc()
	p := New(2, fa)
	top, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if top == 0 {
		t.Fatal("no stack returned")
	}
	if s := p.Stats(); s.Allocs != 1 || s.Gets != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutThenGetReusesLIFO(t *testing.T) {
	fa := newFakeAlloc()
	p := New(1, fa)
	a, _ := p.Get(0)
	b, _ := p.Get(0)
	p.Put(0, a)
	p.Put(0, b)
	// LIFO: last put comes back first.
	got1, _ := p.Get(0)
	got2, _ := p.Get(0)
	if got1 != b || got2 != a {
		t.Fatalf("got (%#x,%#x), want LIFO (%#x,%#x)", got1, got2, b, a)
	}
	if s := p.Stats(); s.Allocs != 2 {
		t.Fatalf("allocs = %d, want 2 (reuse, not realloc)", s.Allocs)
	}
}

func TestPerCPUListsAreIndependent(t *testing.T) {
	fa := newFakeAlloc()
	p := New(2, fa)
	a, _ := p.Get(0)
	p.Put(0, a)
	// CPU 1's list is empty: must allocate fresh.
	b, _ := p.Get(1)
	if b == a {
		t.Fatal("CPU 1 stole CPU 0's stack")
	}
}

func TestSwapAllDrainsAndRelease(t *testing.T) {
	fa := newFakeAlloc()
	p := New(4, fa)
	var tops []uint64
	for cpu := 0; cpu < 4; cpu++ {
		for i := 0; i < 3; i++ {
			s, _ := p.Get(cpu)
			tops = append(tops, s)
		}
	}
	for i, s := range tops {
		p.Put(i%4, s)
	}
	old := p.SwapAll()
	if len(old) != 12 {
		t.Fatalf("SwapAll returned %d stacks, want 12", len(old))
	}
	// Lists are now empty: next Get allocates.
	allocsBefore := p.Stats().Allocs
	if _, err := p.Get(0); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Allocs != allocsBefore+1 {
		t.Fatal("post-swap Get should allocate")
	}
	if err := p.Release(old); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Frees != 12 {
		t.Fatalf("frees = %d, want 12", s.Frees)
	}
}

func TestStatsDelta(t *testing.T) {
	fa := newFakeAlloc()
	p := New(1, fa)
	s1, _ := p.Get(0)
	s2, _ := p.Get(0)
	p.Put(0, s1)
	p.Put(0, s2)
	old := p.SwapAll()
	if err := p.Release(old); err != nil {
		t.Fatal(err)
	}
	if d := p.Stats().Delta(); d != 0 {
		t.Fatalf("delta = %d, want 0 (as in the artifact's dmesg)", d)
	}
}

// TestConcurrentGetPut hammers one CPU list from many goroutines while a
// "re-randomizer" goroutine swaps lists — the exact concurrency pattern of
// the paper's design.
func TestConcurrentGetPut(t *testing.T) {
	fa := newFakeAlloc()
	const ncpu = 4
	p := New(ncpu, fa)
	var stop atomic.Bool
	var workers, swapper sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(cpu int) {
			defer workers.Done()
			for i := 0; i < 3000; i++ {
				top, err := p.Get(cpu)
				if err != nil {
					t.Error(err)
					return
				}
				if top == 0 {
					t.Error("zero stack")
					return
				}
				p.Put(cpu, top)
			}
		}(g % ncpu)
	}
	var swapped []uint64
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for !stop.Load() {
			swapped = append(swapped, p.SwapAll()...)
		}
	}()
	workers.Wait()
	stop.Store(true)
	swapper.Wait()
	// Collect the rest.
	swapped = append(swapped, p.SwapAll()...)
	// No stack may appear twice (no double-pop / lost update).
	seen := map[uint64]bool{}
	for _, s := range swapped {
		if seen[s] {
			t.Fatalf("stack %#x drained twice", s)
		}
		seen[s] = true
	}
	if err := p.Release(swapped); err != nil {
		t.Fatal(err) // fakeAlloc panics on double free
	}
}

// TestQuickNoLostStacks property: after any sequence of get/put/swap, the
// number of live stacks equals allocs - frees, and draining everything
// releases all of them.
func TestQuickNoLostStacks(t *testing.T) {
	f := func(ops []uint8) bool {
		fa := newFakeAlloc()
		p := New(2, fa)
		held := [][]uint64{nil, nil}
		for _, op := range ops {
			cpu := int(op>>1) % 2
			switch op % 3 {
			case 0:
				s, err := p.Get(cpu)
				if err != nil {
					return false
				}
				held[cpu] = append(held[cpu], s)
			case 1:
				if n := len(held[cpu]); n > 0 {
					p.Put(cpu, held[cpu][n-1])
					held[cpu] = held[cpu][:n-1]
				}
			case 2:
				if err := p.Release(p.SwapAll()); err != nil {
					return false
				}
			}
		}
		// Drain: return held stacks, swap, release.
		for cpu, hs := range held {
			for _, s := range hs {
				p.Put(cpu, s)
			}
		}
		if err := p.Release(p.SwapAll()); err != nil {
			return false
		}
		st := p.Stats()
		return fa.liveCount() == 0 && st.Delta() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGetPut(b *testing.B) {
	fa := newFakeAlloc()
	p := New(1, fa)
	s, _ := p.Get(0)
	p.Put(0, s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top, err := p.Get(0)
		if err != nil {
			b.Fatal(err)
		}
		p.Put(0, top)
	}
}
