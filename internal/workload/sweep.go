package workload

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"adelie/internal/sim"
)

// Parameter sweeps: run one experiment once per value of a -p range
// ("ops=100..1600:250"), producing one Table per point. The parallel
// path fans points across a worker pool and serves machine boots from a
// snapshot/fork template pool — every machine an experiment would
// cold-boot is instead forked copy-on-write from a booted, frozen
// template of the same (config, seed, drivers) key. Forks are
// bit-identical to cold boots (sim's fork-determinism contract), so
// serial and parallel sweeps must render byte-identical output; CI
// diffs the two modes on every push.

// poolKey identifies one bootable machine shape.
type poolKey struct {
	cfg     Config
	seed    int64
	queues  int
	drivers string
}

// forkPool caches frozen snapshot templates while a parallel sweep (or
// any caller of EnableForkPool) is active. Disabled, newMachine boots
// cold and the pool costs one atomic load. Enables nest: the fleet
// service holds the pool open for its whole lifetime while each sweep
// request's RunSweep still brackets itself with Enable/Disable — the
// templates are torn down only when the last enabler leaves.
//
// Forks and template boots hold mu for reading, so forks of one key
// proceed while another key boots; Enable and Disable hold it for
// writing, so no template is released under a fork in progress.
var forkPool struct {
	on   atomic.Bool
	mu   sync.RWMutex
	refs int
	tmpl map[poolKey]*poolEntry
	keys sync.Mutex // guards tmpl's entries under a read lock of mu

	// Lifetime counters for statsz-style reporting (PoolStats).
	templates atomic.Int64
	forks     atomic.Int64
	coldBoots atomic.Int64
}

// poolEntry is one key's template, booted and frozen once.
type poolEntry struct {
	once sync.Once
	m    *sim.Machine // nil if the shape failed to boot or to freeze
}

// EnableForkPool turns on snapshot/fork boot caching: until the matching
// DisableForkPool, every newMachine call forks a pooled template
// instead of cold-booting (falling back to a cold boot if the machine
// shape cannot fork, e.g. under a reclaimer without fork support).
// Enable/Disable pairs nest.
func EnableForkPool() {
	forkPool.mu.Lock()
	defer forkPool.mu.Unlock()
	forkPool.refs++
	if forkPool.tmpl == nil {
		forkPool.tmpl = map[poolKey]*poolEntry{}
	}
	forkPool.on.Store(true)
}

// DisableForkPool undoes one EnableForkPool; when the last enabler
// leaves, boot caching turns back off and every template's
// copy-on-write frame references are released.
func DisableForkPool() {
	forkPool.mu.Lock()
	defer forkPool.mu.Unlock()
	if forkPool.refs > 0 {
		forkPool.refs--
	}
	if forkPool.refs > 0 {
		return
	}
	forkPool.on.Store(false)
	for _, e := range forkPool.tmpl {
		if e.m != nil {
			e.m.Release()
		}
	}
	forkPool.tmpl = nil
}

// PoolStats reports the fork pool's lifetime boot accounting: templates
// frozen, machines served as copy-on-write forks, and machines that had
// to cold-boot while the pool was enabled (a fork-pool miss — the
// service's "no cold boot per request" contract watches this stay 0).
type PoolStats struct {
	Templates int64 `json:"templates"`
	Forks     int64 `json:"forks"`
	ColdBoots int64 `json:"cold_boots"`
}

// ForkPoolStats returns the pool's cumulative counters.
func ForkPoolStats() PoolStats {
	return PoolStats{
		Templates: forkPool.templates.Load(),
		Forks:     forkPool.forks.Load(),
		ColdBoots: forkPool.coldBoots.Load(),
	}
}

// poolFork serves one machine from the template pool, booting and
// freezing the template on first use of its key (once per key; callers
// of that key wait for it). ok is false when the pool is off or this
// shape cannot fork — the caller cold-boots.
func poolFork(c Config, seed int64, queues int, driverNames []string) (*sim.Machine, bool) {
	if !forkPool.on.Load() {
		return nil, false
	}
	forkPool.mu.RLock()
	defer forkPool.mu.RUnlock()
	if forkPool.tmpl == nil { // disabled between the atomic check and the lock
		return nil, false
	}
	key := poolKey{c, seed, queues, strings.Join(driverNames, ",")}
	forkPool.keys.Lock()
	e := forkPool.tmpl[key]
	if e == nil {
		e = &poolEntry{}
		forkPool.tmpl[key] = e
	}
	forkPool.keys.Unlock()
	e.once.Do(func() {
		m, err := bootMachineQ(c, seed, queues, driverNames...)
		if err != nil {
			return // let the cold path surface the boot error
		}
		if err := m.Snapshot(); err != nil {
			return // unforkable shape: cold boots from here on
		}
		e.m = m
		forkPool.templates.Add(1)
	})
	if e.m == nil {
		return nil, false
	}
	f, err := e.m.Fork()
	if err != nil {
		return nil, false
	}
	forkPool.forks.Add(1)
	return f, true
}

// SweepPoint is one completed point of a parameter sweep.
type SweepPoint struct {
	Param string
	Value int64
	Table *Table
}

// RunSweep runs the experiment once per value of the named parameter,
// returning the points in value order. Serial mode runs them one after
// another on cold-booted machines — the reference behavior. Parallel
// mode fans the points across up to workers goroutines (default: one
// per host core) with boots served by the fork pool; its tables must be
// bit-identical to serial mode's, point for point.
func RunSweep(e *Experiment, base Params, param string, values []int64, parallel bool, workers int) ([]SweepPoint, error) {
	pts := make([]SweepPoint, len(values))
	runPoint := func(i int) error {
		p := base.Clone()
		if err := p.Set(param, values[i]); err != nil {
			return err
		}
		tab, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("%s -p %s=%d: %w", e.Name, param, values[i], err)
		}
		pts[i] = SweepPoint{Param: param, Value: values[i], Table: tab}
		return nil
	}

	// A worker recovers a point's panic as that point's error: nothing
	// can recover a panic on a worker goroutine, so it would end the
	// process, and the deferred DisableForkPool with it.
	workerPoint := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s -p %s=%d: panic: %v", e.Name, param, values[i], r)
			}
		}()
		return runPoint(i)
	}

	if !parallel {
		for i := range values {
			if err := runPoint(i); err != nil {
				return nil, err
			}
		}
		return pts, nil
	}

	EnableForkPool()
	defer DisableForkPool()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(values) {
		workers = len(values)
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(values) {
					return
				}
				if err := workerPoint(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return pts, nil
}
