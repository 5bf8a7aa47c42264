package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerBarrierOrdersByClockTrackSeq(t *testing.T) {
	tr := NewTracer("m", 2)
	irq := tr.Track("irq")
	// Stage out of order across tracks: a late-clock event on a low
	// track, an early-clock raise on the irq track.
	tr.Emit(Event{Clk: 200, Track: 0, Kind: KindRound, Name: "round"})
	tr.Emit(Event{Clk: 200, Track: 1, Kind: KindRound, Name: "round"})
	tr.Emit(Event{Clk: 150, Track: irq, Kind: KindIRQRaise, Name: "raise"})
	tr.Emit(Event{Clk: 200, Track: 0, Kind: KindTLB, Name: "tlb"})
	tr.Barrier()
	evs := tr.Events()
	want := []string{"raise", "round", "tlb", "round"}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, name := range want {
		if evs[i].Name != name {
			t.Errorf("event %d = %q, want %q", i, evs[i].Name, name)
		}
	}
	// Same-track same-clock pairs keep emission order.
	if evs[1].Track != 0 || evs[2].Track != 0 || evs[3].Track != 1 {
		t.Errorf("track order wrong: %+v", evs)
	}
}

func TestSessionJSONDeterministic(t *testing.T) {
	build := func() *TraceSession {
		s := &TraceSession{}
		tr := s.Tracer("machine0 ext4", 1)
		tr.Emit(Event{Clk: 10, Track: 0, Kind: KindRound, Name: "round",
			Args: []Arg{ArgU("blocks", 7), ArgS("cfg", "pic+ret")}})
		tr.Emit(Event{Clk: 12, Dur: 5, Track: 0, Kind: KindISR, Name: "isr L3",
			Args: []Arg{ArgU("line", 3)}})
		tr.Barrier()
		return s
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("trace JSON not byte-identical:\n%s\n----\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		`"ph":"X"`, `"dur":5`, `"ts":12`, `"process_name"`, `"thread_name"`,
		`"vCPU 0"`, `"blocks":7`, `"cfg":"pic+ret"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s:\n%s", want, out)
		}
	}
}

func TestProfilerFlatAndCollapsed(t *testing.T) {
	p := &Profiler{}
	l0, l1 := p.NewLane(), p.NewLane()
	l0.Hit("ext4;ext4_get_block")
	l0.Hit("ext4;ext4_get_block")
	l1.Hit("ext4;ext4_get_block")
	l1.Hit("kernel;memcpy_burn")
	flat := p.Flat()
	if len(flat) != 2 || flat[0].Sym != "ext4;ext4_get_block" || flat[0].Count != 3 {
		t.Fatalf("flat = %+v", flat)
	}
	if p.Total() != 4 {
		t.Fatalf("total = %d, want 4", p.Total())
	}
	var buf bytes.Buffer
	if err := p.WriteCollapsed(&buf); err != nil {
		t.Fatal(err)
	}
	want := "ext4;ext4_get_block 3\nkernel;memcpy_burn 1\n"
	if buf.String() != want {
		t.Fatalf("collapsed = %q, want %q", buf.String(), want)
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("adelie_test_ops_total").Add(42)
	r.Counter("adelie_test_ops_total").Inc() // same counter instance
	r.Gauge("adelie_test_pool", func() float64 { return 4 })
	h := r.Histogram("adelie_test_wait_us", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE adelie_test_ops_total counter\nadelie_test_ops_total 43\n",
		"# TYPE adelie_test_pool gauge\nadelie_test_pool 4\n",
		`adelie_test_wait_us_bucket{le="10"} 1`,
		`adelie_test_wait_us_bucket{le="100"} 2`,
		`adelie_test_wait_us_bucket{le="+Inf"} 3`,
		"adelie_test_wait_us_sum 5055\n",
		"adelie_test_wait_us_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer("m", 1)
	for i := 0; i < maxEventsPerMachine+10; i++ {
		tr.Emit(Event{Clk: uint64(i), Track: 0, Name: "e"})
		if i%4096 == 0 {
			tr.Barrier()
		}
	}
	tr.Barrier()
	if len(tr.Events()) != maxEventsPerMachine {
		t.Fatalf("retained %d events, want cap %d", len(tr.Events()), maxEventsPerMachine)
	}
	if tr.drops != 10 {
		t.Fatalf("dropped = %d, want 10", tr.drops)
	}
}
