package devices

import "testing"

// TestNVMeEpochSnapshotLatency: inside an epoch, hit/miss decisions read
// the epoch-start cache snapshot — two first-time reads of the same LBA
// in one epoch both see a miss regardless of order, and the insertion
// becomes visible only after EndEpoch. This is what makes NVMe latencies
// independent of the order an engine round's lanes run in.
func TestNVMeEpochSnapshotLatency(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	d.Preload(7, []byte("epoch"))
	sq, cq, buf := base, base+0x1000, base+0x2000
	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)

	read := func(slot uint64) uint64 {
		if err := as.WriteBytes(sq+slot*32, EncodeSQEntry(NVMeCmdRead, 7, 512, buf)); err != nil {
			t.Fatal(err)
		}
		d.MMIOWrite(NVMeRegDoorbell, slot)
		lat, _ := as.Read64(cq + slot*16 + 8)
		return lat
	}

	d.BeginEpoch()
	if lat := read(0); lat != NVMeMediaLatency {
		t.Fatalf("first epoch read: latency %d, want media %d", lat, NVMeMediaLatency)
	}
	// Same LBA, different slot, same epoch: still a miss (snapshot).
	if lat := read(1); lat != NVMeMediaLatency {
		t.Fatalf("second same-epoch read: latency %d, want media %d", lat, NVMeMediaLatency)
	}
	d.EndEpoch()

	d.BeginEpoch()
	if lat := read(2); lat != NVMeCacheLatency {
		t.Fatalf("next-epoch read: latency %d, want cache %d", lat, NVMeCacheLatency)
	}
	d.EndEpoch()
}

// TestNVMePerSlotCompletionLatency: each slot's CQ entry carries the
// latency of its own command, so per-CPU queue slots never observe a
// neighbour's timing.
func TestNVMePerSlotCompletionLatency(t *testing.T) {
	as, base := testAS(t)
	d := NewNVMe(as)
	d.Preload(1, []byte("a"))
	sq, cq, buf := base, base+0x1000, base+0x2000
	d.MMIOWrite(NVMeRegSQBase, sq)
	d.MMIOWrite(NVMeRegCQBase, cq)

	// Warm LBA 1 so slot 0's read hits; slot 1 reads cold LBA 2.
	if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, 1, 512, buf)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)

	if err := as.WriteBytes(sq, EncodeSQEntry(NVMeCmdRead, 1, 512, buf)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 0)
	if err := as.WriteBytes(sq+32, EncodeSQEntry(NVMeCmdRead, 2, 512, buf)); err != nil {
		t.Fatal(err)
	}
	d.MMIOWrite(NVMeRegDoorbell, 1)

	lat0, _ := as.Read64(cq + 8)
	lat1, _ := as.Read64(cq + 16 + 8)
	if lat0 != NVMeCacheLatency {
		t.Fatalf("slot 0 latency = %d, want cache hit %d", lat0, NVMeCacheLatency)
	}
	if lat1 != NVMeMediaLatency {
		t.Fatalf("slot 1 latency = %d, want media %d", lat1, NVMeMediaLatency)
	}
}
