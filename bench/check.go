package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"

	"adelie/internal/workload"
)

// experiment looks up a registered experiment.
func experiment(name string) (*workload.Experiment, error) {
	e, ok := workload.Experiments.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiment %q not registered", name)
	}
	return e, nil
}

// registryRun runs a registered experiment with benchtool-style
// overrides ("seed=7").
func registryRun(name string, quick bool, overrides ...string) (*workload.Table, error) {
	e, err := experiment(name)
	if err != nil {
		return nil, err
	}
	p, sweep, _, err := e.ResolveOverrides(quick, overrides, true)
	if err != nil {
		return nil, err
	}
	if sweep != "" {
		return nil, fmt.Errorf("%s: unexpected range for %q", name, sweep)
	}
	return e.Run(p)
}

// render is a table's terminal rendering, as benchtool prints it.
func render(t *workload.Table) string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// pinnedSeed is the seed whose simulated outputs are pinned in
// testdata/digests.json.
const pinnedSeed = 1

//go:embed testdata/digests.json
var pinnedJSON []byte

// digest hashes a workload's simulated outputs: cycles, instructions,
// rates, latencies, interrupt and rerand counts and rendered tables.
// Interpreter counters (blocks, chain links) depend on the execution mode
// and stay out.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// checkDigest prints the workload's digest and, at the pinned seed,
// compares it with the committed one.
func (r *run) checkDigest(d *digest) {
	got := d.sum()
	fmt.Fprintf(r.stderr, "bench: %s: seed %d digest %s\n", r.workload, r.seed, got)
	if r.seed != pinnedSeed {
		return
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		r.problem(0, "testdata/digests.json: %v", err)
		return
	}
	if want := pinned[r.workload]; got != want {
		r.problem(0, "seed-%d simulated outputs digest %s, pinned %q", pinnedSeed, got, want)
	}
}
