package workload

import (
	"bytes"
	"strings"
	"testing"

	"adelie/internal/cpu"
	"adelie/internal/obs"
)

// renderAll runs every registered experiment at quick params and returns
// the concatenated rendered tables.
func renderAll(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range Experiments.All() {
		tab, err := e.Run(e.Params(true))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tab.Fprint(&sb)
	}
	return sb.String()
}

// TestTraceOnOffTableEquality is the subsystem's core contract: enabling
// tracing+profiling must not change any figure. Every experiment in the
// registry renders byte-identically with the observability session open
// and closed.
func TestTraceOnOffTableEquality(t *testing.T) {
	plain := renderAll(t)
	_, end := BeginObs(true, true)
	traced := renderAll(t)
	end()
	if plain != traced {
		t.Fatalf("tracing changed experiment output\n--- untraced ---\n%s\n--- traced ---\n%s", plain, traced)
	}
}

// TestServerTraceByteIdentical records an experiment's -quick run
// twice, once with the profiler on as well, and requires the exported
// trace JSON to match byte for byte. The rows are the server experiment
// (4 NIC queues, per-vCPU interrupt routing, the most concurrent
// machine in the registry) and fig9, the figure CI records with
// `benchtool -quick -trace FILE -prof FILE run fig9`. Run under -race
// this also proves the emission path is data-race-free.
func TestServerTraceByteIdentical(t *testing.T) {
	for _, name := range []string{"server", "fig9"} {
		t.Run(name, func(t *testing.T) {
			e, ok := Experiments.Lookup(name)
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			capture := func(profile bool) []byte {
				sess, end := BeginObs(true, profile)
				defer end()
				if _, err := e.Run(e.Params(true)); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sess.Trace.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a := capture(true)
			b := capture(false)
			if !bytes.Equal(a, b) {
				for i := range a {
					if i >= len(b) || a[i] != b[i] {
						lo := max(i-80, 0)
						t.Fatalf("trace bytes diverge at offset %d:\n run1: …%s\n run2: …%s",
							i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
					}
				}
				t.Fatalf("trace lengths differ: %d vs %d bytes", len(a), len(b))
			}
		})
	}
}

// traceEvents flattens a session's merged event streams, excluding the
// given kinds.
func traceEvents(s *ObsSession, exclude ...obs.Kind) []obs.Event {
	skip := map[obs.Kind]bool{}
	for _, k := range exclude {
		skip[k] = true
	}
	var out []obs.Event
	for _, tr := range s.Trace.Machines() {
		for _, ev := range tr.Events() {
			if !skip[ev.Kind] {
				out = append(out, ev)
			}
		}
	}
	return out
}

// TestChainedVsNoChainEventSequence proves the trace records simulated
// state, not host execution strategy: with trace linking disabled
// (the ADELIE_NOCHAIN cross-mode gate), every event except the per-round
// block summaries — which legitimately carry chained-block counts — is
// identical, clock stamps and arguments included.
func TestChainedVsNoChainEventSequence(t *testing.T) {
	capture := func() []obs.Event {
		sess, end := BeginObs(true, false)
		defer end()
		if _, err := ioctl(seedFig9, "wrappers", CfgRerand, 500); err != nil {
			t.Fatal(err)
		}
		return traceEvents(sess, obs.KindRound)
	}
	chained := capture()
	was := cpu.SetChaining(false)
	unchained := capture()
	cpu.SetChaining(was)

	if len(chained) != len(unchained) {
		t.Fatalf("event counts differ: %d chained vs %d unchained", len(chained), len(unchained))
	}
	for i := range chained {
		a, b := chained[i], unchained[i]
		if a.Clk != b.Clk || a.Dur != b.Dur || a.Track != b.Track || a.Kind != b.Kind || a.Name != b.Name {
			t.Fatalf("event %d differs: chained %+v vs unchained %+v", i, a, b)
		}
		if len(a.Args) != len(b.Args) {
			t.Fatalf("event %d arg counts differ", i)
		}
		for j := range a.Args {
			if a.Args[j] != b.Args[j] {
				t.Fatalf("event %d arg %d differs: %+v vs %+v", i, j, a.Args[j], b.Args[j])
			}
		}
	}
	if len(chained) == 0 {
		t.Fatal("no events captured; the comparison proved nothing")
	}
}

// TestProfilerSymbolStableAcrossRerand pins the symbolization contract:
// a function sample attributes to the same module;function name before
// and after re-randomization moves the module, never to the transient
// address.
func TestProfilerSymbolStableAcrossRerand(t *testing.T) {
	m, err := bootMachineQ(CfgRerand, 77, 1, "dummy")
	if err != nil {
		t.Fatal(err)
	}
	mod := m.Module("dummy")
	if mod == nil {
		t.Fatal("dummy module not loaded")
	}
	// The exported dummy_ioctl VA is its wrapper in the immovable part,
	// which re-randomization never moves; samples land in the movable
	// part, where the real function bodies live. Find a sampleable
	// offset there whose symbol resolves, then check the same offset
	// resolves to the same symbol after the part's base moves.
	base0 := mod.Movable.Base
	var delta uint64
	var name0 string
	for ; delta < mod.Movable.Size; delta += 8 {
		if fn, ok := mod.FindFunc(base0 + delta); ok {
			name0 = fn
			break
		}
	}
	if name0 == "" {
		t.Fatal("no function symbol anywhere in the movable part")
	}
	rep, err := m.R.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModulesMoved == 0 {
		t.Fatal("rerand step moved nothing; the test forced no move")
	}
	base1 := mod.Movable.Base
	if base0 == base1 {
		t.Fatalf("rerand did not move the movable part (still at %#x)", base0)
	}
	name1, ok := mod.FindFunc(base1 + delta)
	if !ok {
		t.Fatalf("offset %#x lost its symbol after the move", delta)
	}
	if name0 != name1 {
		t.Fatalf("symbol attribution moved with the VA: %q at %#x vs %q at %#x",
			name0, base0+delta, name1, base1+delta)
	}
	if old, ok := mod.FindFunc(base0 + delta); ok {
		t.Fatalf("stale pre-move VA %#x still resolves (%q); samples would mis-attribute", base0+delta, old)
	}
}
