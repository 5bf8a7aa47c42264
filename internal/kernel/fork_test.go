package kernel

import (
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
