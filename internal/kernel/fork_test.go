package kernel

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"adelie/internal/cpu"
)

func TestForkClonesVCPUsOnFirstUse(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	nk, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer nk.AS.Phys().Release()
	if nk.NumCPUs() != k.NumCPUs() {
		t.Fatalf("fork has %d vCPUs, template %d", nk.NumCPUs(), k.NumCPUs())
	}
	for i := 0; i < nk.NumCPUs(); i++ {
		if nk.LoadedCPU(i) != nil {
			t.Fatalf("vCPU %d cloned at Fork", i)
		}
	}
	c := nk.CPU(1)
	if c == k.CPU(1) || c.AS != nk.AS || c.ID != 1 || c.Regs != k.CPU(1).Regs {
		t.Fatal("vCPU 1 is not a clone of the template's over the fork's address space")
	}
	if nk.LoadedCPU(1) != c || nk.LoadedCPU(0) != nil {
		t.Fatal("first use of vCPU 1 materialized the wrong slots")
	}
}

func TestForkOfForkClonesFromNearestVCPU(t *testing.T) {
	// A fork of a fork clones a vCPU from its parent's clone if the
	// parent has one, and from the original template otherwise.
	k := newKernel(t, KASLRFull64)
	mid, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer mid.AS.Phys().Release()
	mid.CPU(0).Regs[0] = 0xfeed
	leaf, err := mid.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.AS.Phys().Release()
	if leaf.CPU(0).Regs[0] != 0xfeed {
		t.Fatal("vCPU 0 of a fork of a fork did not clone the parent's clone")
	}
	if leaf.CPU(2).Regs != k.CPU(2).Regs || mid.LoadedCPU(2) != nil {
		t.Fatal("untouched vCPU 2 did not clone from the original template")
	}
}

func TestConcurrentFirstUseYieldsOneVCPU(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	nk, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer nk.AS.Phys().Release()
	const n = 8
	var (
		got   [n]*cpu.CPU
		ready sync.WaitGroup
		done  sync.WaitGroup
		start = make(chan struct{})
	)
	ready.Add(n)
	done.Add(n)
	for g := 0; g < n; g++ {
		go func(g int) {
			defer done.Done()
			ready.Done()
			<-start
			got[g] = nk.CPU(3)
		}(g)
	}
	ready.Wait()
	close(start)
	done.Wait()
	for g := 1; g < n; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different vCPU 3 than goroutine 0", g)
		}
	}
	if nk.CPU(3) != got[0] {
		t.Fatal("the slot holds a different vCPU than every racer got")
	}
}

// draws returns the next n values of src.
func draws(src interface{ Int63() int64 }, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63()
	}
	return out
}

// coldDraws returns draws skip+1 .. skip+n of a fresh source seeded with
// seed: what a machine at stream position skip must draw next.
func coldDraws(seed int64, skip, n int) []int64 {
	src := rand.NewSource(seed)
	draws(src, skip)
	return draws(src, n)
}

func TestForkContinuesRNGStream(t *testing.T) {
	k := newKernel(t, KASLRFull64)
	k.Rand.Int63n(1 << 20) // move past boot's draws
	n := int(k.randSrc.n)
	if n == 0 {
		t.Fatal("the kernel drew nothing")
	}
	fork := func(k *Kernel) *Kernel {
		nk, err := k.Fork()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nk.AS.Phys().Release() })
		if nk.randSrc.src != nil {
			t.Fatal("Fork seeded a generator before the first draw")
		}
		return nk
	}
	idle := fork(k) // never draws
	mid := fork(k)
	leaf := fork(mid) // forked from a fork that has not drawn either

	want := coldDraws(k.Cfg.Seed, n, 3)
	for name, f := range map[string]*Kernel{"fork": mid, "fork of fork": leaf, "template": k} {
		if got := draws(f.Rand, 3); !slices.Equal(got, want) {
			t.Errorf("%s draws %v, want %v", name, got, want)
		}
	}
	// A fork taken after its parent drew continues from the parent's
	// new position.
	late := fork(mid)
	if got, want := draws(late.Rand, 2), coldDraws(k.Cfg.Seed, n+3, 2); !slices.Equal(got, want) {
		t.Errorf("fork of a fork that drew draws %v, want %v", got, want)
	}
	if idle.randSrc.src != nil || idle.randSrc.n != uint64(n) {
		t.Fatal("a fork that never drew seeded a generator or moved its position")
	}
}

func TestBootCreatesVCPUsOnFirstUse(t *testing.T) {
	// Boot places every vCPU's stack but creates vCPUs only when first
	// asked for, on a booted kernel as on a fork of it.
	k := newKernel(t, KASLRFull64)
	for i := 0; i < k.NumCPUs(); i++ {
		if k.LoadedCPU(i) != nil {
			t.Fatalf("boot created vCPU %d", i)
		}
	}
	c := k.CPU(3)
	if c.ID != 3 || c.AS != k.AS || k.LoadedCPU(3) != c || k.LoadedCPU(2) != nil {
		t.Fatal("first use of vCPU 3 did not create exactly vCPU 3")
	}
	if _, _, ok := k.AS.Lookup(c.Regs[4] - 8); !ok || c.Regs[4] == k.CPU(2).Regs[4] {
		t.Fatal("vCPU 3 does not start on a boot stack of its own")
	}
	nk, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer nk.AS.Phys().Release()
	if f := nk.CPU(1); f.Regs != k.CPU(1).Regs || f.ID != 1 || f.AS != nk.AS {
		t.Fatal("a fork's vCPU 1, never created by the template, differs from the template's")
	}
}
