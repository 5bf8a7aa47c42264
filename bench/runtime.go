package main

import (
	"runtime/metrics"
	"sync"
)

// Go runtime metrics the benchmark reads.
const (
	rtHeapGoal = "/gc/heap/goal:bytes"
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtAllCPU   = "/cpu/classes/total:cpu-seconds"
	rtAllocs   = "/gc/heap/allocs:bytes"
)

// heapGoal samples the Go heap goal: the heap size the garbage collector
// lets the process grow to before it collects, twice the live heap and at
// least 4 MB. Safe for concurrent use.
type heapGoal struct {
	mu sync.Mutex
	xs []float64 // MB
}

func (h *heapGoal) sample() {
	s := []metrics.Sample{{Name: rtHeapGoal}}
	metrics.Read(s)
	h.mu.Lock()
	h.xs = append(h.xs, float64(s[0].Value.Uint64())/(1<<20))
	h.mu.Unlock()
}

func (h *heapGoal) samples() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.xs...)
}

// runtimeSnap is the Go runtime's cumulative CPU and allocation counters.
type runtimeSnap struct {
	gcCPU, allCPU float64
	allocs        uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: rtGCCPU}, {Name: rtAllCPU}, {Name: rtAllocs}}
	metrics.Read(s)
	return runtimeSnap{gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}

// reportRuntime sets the Go runtime metrics for the ops run between two
// snapshots.
func (r *run) reportRuntime(before, after runtimeSnap, ops int) {
	r.set("go.gc_cpu_pct", pct(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU), ops, nil)
	r.set("go.alloc_kb_per_op", float64(after.allocs-before.allocs)/1024/float64(max(ops, 1)), ops, nil)
}
