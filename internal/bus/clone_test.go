package bus_test

import (
	"slices"
	"testing"

	"adelie/internal/bus"
	"adelie/internal/devices"
	"adelie/internal/mm"
)

// ringNIC attaches a NIC named name with a programmed RX ring of ringLen
// descriptors whose buffers live at ringVA's region.
func ringNIC(t *testing.T, as *mm.AddressSpace, b *bus.Bus, name string, ringVA uint64) *devices.NIC {
	t.Helper()
	const ringLen = 8
	n := devices.NewNIC(as)
	n.Name = name
	if _, err := b.Attach(n); err != nil {
		t.Fatal(err)
	}
	n.MMIOWrite(devices.NICRegRxRing, ringVA)
	n.MMIOWrite(devices.NICRegRingLen, ringLen)
	for i := uint64(0); i < ringLen; i++ {
		if err := as.Write64(ringVA+i*16, ringVA+0x1000+i*0x100); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// delivery is one line drained at a barrier clock.
type delivery struct {
	line int
	at   uint64
}

// barrier runs one interrupt window the way the engine does: publish
// the clock, and unless the bus is quiet, tick the armed devices and
// drain the pending set, recording each line as delivered at now. It
// returns the lines delivered, in delivery order.
func barrier(b *bus.Bus, now uint64) []delivery {
	b.SetNow(now)
	if b.Quiet() {
		return nil
	}
	b.Tick(false)
	var out []delivery
	for _, p := range b.IC().TakePending(nil) {
		b.IC().NoteDelivered(p, now, true)
		out = append(out, delivery{p.Line, now})
	}
	return out
}

// TestCloneCarriesArmedDeviceState: a bus cloned while one NIC holds a
// coalesced frame it has not asserted and another NIC's line is raised
// but undelivered must replay the template's interrupt schedule
// exactly. Both pieces of state are read through lock-free counts on
// the barrier path (NIC.Armed, IntController.HasPending); a clone that
// dropped either would go quiet and deliver late or never.
func TestCloneCarriesArmedDeviceState(t *testing.T) {
	as := mm.NewAddressSpace(mm.NewPhysMem())
	region := mm.KernelBase + 0x100000
	if _, err := as.MapRegion(region, 16, mm.FlagWrite); err != nil {
		t.Fatal(err)
	}
	b := bus.New(as, mm.KernelBase+0x7_0000_0000)
	const delay = 500
	coalesced := ringNIC(t, as, b, "nic0", region)
	coalesced.SetCoalescing(4, delay)
	raised := ringNIC(t, as, b, "nic1", region+0x4000)

	b.SetNow(1000)
	coalesced.Deliver([]byte("held below the frame threshold"))
	raised.Deliver([]byte("asserted at once"))
	if !coalesced.Armed() || coalesced.IRQsAsserted != 0 {
		t.Fatalf("coalesced NIC: armed=%v asserted=%d, want armed and silent", coalesced.Armed(), coalesced.IRQsAsserted)
	}
	if !b.IC().HasPending() {
		t.Fatal("raised line not pending")
	}

	fas := as.Fork(as.Phys().Fork())
	clone, err := b.CloneFor(fas, func(d bus.Device) bus.Device {
		return d.(*devices.NIC).CloneFor(fas)
	})
	if err != nil {
		t.Fatal(err)
	}

	schedule := func(b *bus.Bus) []delivery {
		var got []delivery
		for now := uint64(1000); now <= 1000+2*delay; now += 100 {
			got = append(got, barrier(b, now)...)
		}
		return got
	}
	want := []delivery{{b.IRQLine("nic1"), 1000}, {b.IRQLine("nic0"), 1000 + delay}}
	if got := schedule(b); !slices.Equal(got, want) {
		t.Fatalf("template deliveries = %+v, want %+v", got, want)
	}
	if got := schedule(clone); !slices.Equal(got, want) {
		t.Fatalf("clone deliveries = %+v, want %+v", got, want)
	}
	if !b.Quiet() || !clone.Quiet() {
		t.Fatal("bus not quiet after every held frame was delivered")
	}
}
