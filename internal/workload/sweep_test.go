package workload

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParseRange(t *testing.T) {
	cases := []struct {
		in   string
		want []int64
		rng  bool
		err  bool
	}{
		{"100..400:100", []int64{100, 200, 300, 400}, true, false},
		{"1..5", []int64{1, 2, 3, 4, 5}, true, false},
		{"7..7", []int64{7}, true, false},
		{"0..10:4", []int64{0, 4, 8}, true, false}, // short final step
		{"-4..-2", []int64{-4, -3, -2}, true, false},
		{"42", nil, false, false}, // plain integer: not a range
		{"", nil, false, false},
		{"..8", nil, false, false}, // nothing before "..": not a range
		{"5..1", nil, true, true},  // descending
		{"1..10:0", nil, true, true},
		{"1..10:-2", nil, true, true},
		{"a..10", nil, true, true},
		{"1..b", nil, true, true},
		{"0..1000000", nil, true, true}, // past the point cap
	}
	for _, c := range cases {
		got, rng, err := ParseRange(c.in)
		if rng != c.rng || (err != nil) != c.err || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseRange(%q) = %v, %v, %v; want %v, %v, err=%v",
				c.in, got, rng, err, c.want, c.rng, c.err)
		}
	}
}

// TestRegistryForkPoolEquivalent is the tentpole's correctness contract,
// registry-wide: every experiment must produce a bit-identical Table
// when its machines are copy-on-write forks of a booted template instead
// of cold boots. This is what licenses the parallel sweep runner (and
// CI's serial-vs-parallel diff) to exist.
func TestRegistryForkPoolEquivalent(t *testing.T) {
	for _, e := range Experiments.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			run := func() (*Table, string) {
				p := e.Params(true)
				for k, v := range determinismOverrides[e.Name] {
					if err := p.Set(k, v); err != nil {
						t.Fatal(err)
					}
				}
				tab, err := e.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				tab.Fprint(&buf)
				return tab, buf.String()
			}
			cold, coldOut := run()
			EnableForkPool()
			defer DisableForkPool()
			forked, forkedOut := run()
			if !reflect.DeepEqual(cold, forked) {
				t.Errorf("fork-pool table diverges from cold boot:\n%+v\n%+v", cold, forked)
			}
			if coldOut != forkedOut {
				t.Errorf("fork-pool rendering diverges from cold boot:\n%s\n---\n%s", coldOut, forkedOut)
			}
		})
	}
}

// TestSweepForkParallelMatchesSerial: the two sweep modes must give
// equal tables point for point, in their typed cells and rendered byte
// for byte: the check CI's sweep gate runs from benchtool, with the
// gate's fig9 and server ranges.
func TestSweepForkParallelMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name   string
		values []int64
	}{
		{"fig5b", []int64{50, 100, 150, 200}},
		{"fig9", []int64{25, 50, 75, 100}},
		{"server", []int64{20, 40, 60}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, ok := Experiments.Lookup(c.name)
			if !ok {
				t.Fatalf("%s not registered", c.name)
			}
			sweep := func(parallel bool) ([]*Table, string) {
				pts, err := RunSweep(e, e.Params(true), "ops", c.values, parallel, 4)
				if err != nil {
					t.Fatal(err)
				}
				var tabs []*Table
				var buf bytes.Buffer
				for _, pt := range pts {
					if pt.Table == nil {
						t.Fatalf("missing point %d", pt.Value)
					}
					tabs = append(tabs, pt.Table)
					pt.Table.Fprint(&buf)
				}
				return tabs, buf.String()
			}
			serialTabs, serial := sweep(false)
			parallelTabs, parallel := sweep(true)
			if !reflect.DeepEqual(serialTabs, parallelTabs) {
				t.Errorf("parallel sweep cells diverge from serial:\n%+v\n---\n%+v", serialTabs, parallelTabs)
			}
			if serial != parallel {
				t.Fatalf("parallel sweep output diverges from serial:\n%s\n---\n%s", serial, parallel)
			}
		})
	}
}

// TestSweepWorkerPanicIsPointError: a point that panics on a parallel
// sweep's worker becomes that point's error, naming the experiment,
// parameter and value; the other worker still runs every other point,
// and the sweep's fork-pool bracket is released.
func TestSweepWorkerPanicIsPointError(t *testing.T) {
	var done atomic.Int64
	e := &Experiment{
		Name:       "panicky",
		ParamSpecs: []ParamSpec{{Name: "ops", Default: 1, Min: 1, Max: 100}},
		Run: func(p Params) (*Table, error) {
			if p.Int("ops") == 3 {
				panic("point blew up")
			}
			done.Add(1)
			return &Table{}, nil
		},
	}
	values := []int64{1, 2, 3, 4, 5, 6}
	_, err := RunSweep(e, e.Params(false), "ops", values, true, 2)
	if err == nil || !strings.Contains(err.Error(), "panicky -p ops=3: panic: point blew up") {
		t.Fatalf("RunSweep error = %v, want the panicking point named", err)
	}
	if got := done.Load(); got != int64(len(values)-1) {
		t.Fatalf("%d points completed, want the other %d", got, len(values)-1)
	}
	forkPool.mu.Lock()
	refs := forkPool.refs
	forkPool.mu.Unlock()
	if refs != 0 || forkPool.on.Load() {
		t.Fatalf("fork pool still enabled after the sweep (refs %d)", refs)
	}
}

// TestForkPoolFallsBackOnColdBoot: a shape the pool cannot serve (here:
// simply disabling the pool mid-flight) must still boot — and pooled
// boots must actually hit the pool (the template map fills).
func TestForkPoolTemplatesReused(t *testing.T) {
	EnableForkPool()
	defer DisableForkPool()
	m1, err := newMachine(CfgPICRet, 999, "dummy")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := newMachine(CfgPICRet, 999, "dummy")
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("pool handed out the same machine twice")
	}
	if m1.Frozen() || m2.Frozen() {
		t.Fatal("pool handed out the frozen template itself")
	}
	forkPool.mu.Lock()
	n := len(forkPool.tmpl)
	forkPool.mu.Unlock()
	if n != 1 {
		t.Fatalf("pool holds %d templates, want 1 (same key reused)", n)
	}
	m1.Release()
	m2.Release()
}

// TestForkPoolReleasesEveryFork runs every registered experiment with
// the fork pool on, then releases each template as DisableForkPool
// does: every frame record of a template must die with it, as many as a
// cold-booted twin of its shape reports. An experiment that leaks a fork
// keeps the records that fork shares alive, and the recycling of frame
// records never reaches them.
func TestForkPoolReleasesEveryFork(t *testing.T) {
	EnableForkPool()
	for _, e := range Experiments.All() {
		if _, err := e.Run(e.Params(true)); err != nil {
			DisableForkPool()
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	forkPool.mu.Lock()
	tmpl := forkPool.tmpl
	forkPool.tmpl = map[poolKey]*poolEntry{}
	forkPool.mu.Unlock()
	DisableForkPool()
	if len(tmpl) == 0 {
		t.Fatal("no experiment forked from the pool")
	}
	for key, e := range tmpl {
		if e.m == nil {
			continue
		}
		twin, err := bootMachineQ(key.cfg, key.seed, key.queues, strings.Split(key.drivers, ",")...)
		if err != nil {
			t.Fatal(err)
		}
		want := twin.Release()
		if got := e.m.Release(); got != want {
			t.Errorf("%+v: template release freed %d frame records, want %d: a fork was never released", key, got, want)
		}
	}
}

// TestForkPoolConcurrentOneKey: eight goroutines ask the pool for the
// same not-yet-booted key at once, and each runs Fig. 9's ioctl loop on
// its fork while the others fork. The key boots once, and every fork's
// row matches a cold boot's. Run under -race this also covers forks of
// one template taken and run concurrently.
func TestForkPoolConcurrentOneKey(t *testing.T) {
	const seed, ops, n = 907, 200, 8
	cold, err := ioctl(seed, "wrappers+stack", CfgRerandStack, ops)
	if err != nil {
		t.Fatal(err)
	}
	EnableForkPool()
	defer DisableForkPool()
	before := ForkPoolStats()
	rows := make([]IoctlRow, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g], errs[g] = ioctl(seed, "wrappers+stack", CfgRerandStack, ops)
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if rows[g] != cold {
			t.Errorf("goroutine %d row %+v, cold boot %+v", g, rows[g], cold)
		}
	}
	after := ForkPoolStats()
	if got := after.Templates - before.Templates; got != 1 {
		t.Fatalf("%d templates booted for one key, want 1", got)
	}
	if got := after.Forks - before.Forks; got != n {
		t.Fatalf("%d forks served, want %d", got, n)
	}
	if after.ColdBoots != before.ColdBoots {
		t.Fatal("a concurrent request cold-booted")
	}
	forkPool.mu.Lock()
	keys := len(forkPool.tmpl)
	forkPool.mu.Unlock()
	if keys != 1 {
		t.Fatalf("pool holds %d keys, want 1", keys)
	}
}
