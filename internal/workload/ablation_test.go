package workload

import "testing"

func TestPatchingAblationShrinksTables(t *testing.T) {
	rows, err := patchingAblation(seedAblationPatching, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §4.1: the optimizations "substantially reduce the total number
		// of GOT and PLT entries".
		if r.GotEntriesPatched >= r.GotEntriesUnpatched {
			t.Errorf("%s: GOT entries %d (patched) !< %d (unpatched)",
				r.Driver, r.GotEntriesPatched, r.GotEntriesUnpatched)
		}
		if r.StubsPatched > r.StubsUnpatched {
			t.Errorf("%s: stubs %d (patched) > %d (unpatched)",
				r.Driver, r.StubsPatched, r.StubsUnpatched)
		}
		if r.CallsPatched == 0 && r.LoadsPatched == 0 {
			t.Errorf("%s: loader patched nothing", r.Driver)
		}
	}
	// Patching must not make the hot path slower.
	for _, r := range rows {
		if r.Driver != "dummy" {
			continue
		}
		if r.MopsPatched < r.MopsUnpatched*0.999 {
			t.Errorf("patched throughput %.3f below unpatched %.3f", r.MopsPatched, r.MopsUnpatched)
		}
	}
}

func TestSMRAblationHyalineSelfDrives(t *testing.T) {
	rows, err := smrAblation(seedAblationSMR)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]SMRRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	// The §3.4 rationale for Hyaline: reclamation happens as readers
	// leave, with no external driving. QSBR (CodeArmor's choice) stalls
	// until every slot announces quiescence — which idle CPUs never do.
	if d := byScheme["hyaline"].DeltaAfterSteps; d != 0 {
		t.Errorf("hyaline backlog without driving = %d, want 0", d)
	}
	if d := byScheme["qsbr"].DeltaAfterSteps; d == 0 {
		t.Error("qsbr should stall without quiescence announcements")
	}
	if byScheme["ebr"].DeltaAfterSteps > byScheme["qsbr"].DeltaAfterSteps {
		t.Error("EBR should drain at least as well as QSBR under traffic")
	}
	// With explicit driving, every scheme drains fully.
	for _, r := range rows {
		if r.DeltaAfterFlush != 0 {
			t.Errorf("%s: backlog after flush = %d", r.Scheme, r.DeltaAfterFlush)
		}
	}
}

func TestMechanismAblationMonotone(t *testing.T) {
	rows, err := mechanismAblation(seedAblationMechanism, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MopsPerSec > rows[i-1].MopsPerSec*1.001 {
			t.Errorf("adding %s increased throughput over %s (%.3f > %.3f)",
				rows[i].Mechanism, rows[i-1].Mechanism, rows[i].MopsPerSec, rows[i-1].MopsPerSec)
		}
	}
	total := (rows[0].MopsPerSec - rows[3].MopsPerSec) / rows[0].MopsPerSec * 100
	if total < 2 || total > 20 {
		t.Errorf("total instrumentation cost %.1f%%, expected single-digit-ish (paper ≈10%%)", total)
	}
}
