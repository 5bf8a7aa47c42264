// Package stackpool implements Adelie's per-CPU lock-free LIFO lists of
// kernel stacks (paper §3.4, "Stacks"). Wrapper functions dequeue a stack
// on entry and return it on exit; the re-randomizer periodically replaces
// every CPU's list head with a fresh empty list and garbage-collects the
// old stacks once it is safe (through SMR, like old address ranges).
//
// The LIFO is a Treiber stack with an ABA tag packed next to a node index
// in a single 64-bit head word, mirroring the paper's "atomically replaced
// head" design. Contention is low by construction — each CPU has its own
// list and only the re-randomizer's wholesale swap competes with it.
package stackpool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Allocator allocates and releases stacks by their top-of-stack
// address (the kernel).
type Allocator interface {
	AllocStack() (uint64, error)
	FreeStack(top uint64) error
}

// head word layout: tag(32) | nodeIndex+1(32); index 0 means empty.
const idxMask = 0xFFFFFFFF

type node struct {
	top  uint64
	next uint32 // nodeIndex+1, 0 = end of list
}

// Stats mirrors the dmesg counters of the paper's artifact
// ("Stack Alloc", "Stack Free", "Stack Delta").
type Stats struct {
	Allocs int64 // stacks allocated from the kernel
	Frees  int64 // stacks returned to the kernel
	Gets   int64 // wrapper entries (pops)
	Puts   int64 // wrapper exits (pushes)
}

// Delta returns Allocs - Frees.
func (s Stats) Delta() int64 { return s.Allocs - s.Frees }

// Pool is the set of per-CPU stack lists.
type Pool struct {
	stacks Allocator
	heads  []atomic.Uint64

	mu       sync.Mutex
	nodes    []node
	freeList []uint32 // recycled node indexes

	allocs atomic.Int64
	frees  atomic.Int64
	gets   atomic.Int64
	puts   atomic.Int64
}

// New returns a pool with one list per CPU.
func New(ncpu int, stacks Allocator) *Pool {
	if ncpu <= 0 {
		panic("stackpool: need at least one CPU")
	}
	return &Pool{stacks: stacks, heads: make([]atomic.Uint64, ncpu)}
}

// newNode returns a node index, recycling retired ones.
func (p *Pool) newNode(top uint64) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.freeList); n > 0 {
		idx := p.freeList[n-1]
		p.freeList = p.freeList[:n-1]
		p.nodes[idx] = node{top: top}
		return idx
	}
	p.nodes = append(p.nodes, node{top: top})
	return uint32(len(p.nodes) - 1)
}

// nodeCopy reads a node snapshot under the registry lock. The head CAS
// validates the snapshot: if the tag has not moved, the node was still
// ours when we read it.
func (p *Pool) nodeCopy(idx uint32) node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nodes[idx]
}

// setNext updates a node's next link under the registry lock.
func (p *Pool) setNext(idx, next uint32) {
	p.mu.Lock()
	p.nodes[idx].next = next
	p.mu.Unlock()
}

func (p *Pool) recycle(idx uint32) {
	p.mu.Lock()
	p.freeList = append(p.freeList, idx)
	p.mu.Unlock()
}

// Get pops a stack from cpu's list, allocating a fresh one if the list is
// empty (stacks are "allocated on demand as needed", §3.4).
func (p *Pool) Get(cpu int) (uint64, error) {
	p.gets.Add(1)
	h := &p.heads[cpu]
	for {
		old := h.Load()
		idx := uint32(old & idxMask)
		if idx == 0 {
			p.allocs.Add(1)
			return p.stacks.AllocStack()
		}
		n := p.nodeCopy(idx - 1)
		tag := (old>>32 + 1) << 32
		if h.CompareAndSwap(old, tag|uint64(n.next)) {
			p.recycle(idx - 1)
			return n.top, nil
		}
	}
}

// Put pushes a stack back onto cpu's list.
func (p *Pool) Put(cpu int, top uint64) {
	p.puts.Add(1)
	idx := p.newNode(top)
	h := &p.heads[cpu]
	for {
		old := h.Load()
		p.setNext(idx, uint32(old&idxMask))
		tag := (old>>32 + 1) << 32
		if h.CompareAndSwap(old, tag|uint64(idx+1)) {
			return
		}
	}
}

// SwapAll atomically replaces every CPU's list head with an empty list and
// returns the stacks that were queued — the re-randomizer's "generate new
// LIFO lists for each CPU" step. The caller frees them when safe (via
// SMR); Release does the freeing.
func (p *Pool) SwapAll() []uint64 {
	var out []uint64
	for i := range p.heads {
		h := &p.heads[i]
		var old uint64
		for {
			old = h.Load()
			tag := (old>>32 + 1) << 32
			if h.CompareAndSwap(old, tag) { // empty list, bumped tag
				break
			}
		}
		idx := uint32(old & idxMask)
		for idx != 0 {
			n := p.nodeCopy(idx - 1)
			out = append(out, n.top)
			p.recycle(idx - 1)
			idx = n.next
		}
	}
	return out
}

// Release frees stacks previously returned by SwapAll.
func (p *Pool) Release(tops []uint64) error {
	for _, t := range tops {
		if err := p.stacks.FreeStack(t); err != nil {
			return fmt.Errorf("stackpool: releasing stack %#x: %w", t, err)
		}
		p.frees.Add(1)
	}
	return nil
}

// Clone returns a copy of the pool for a forked machine: same queued
// stacks (the top-of-stack VAs are valid in the fork's address space —
// forking preserves all mappings), same node registry, same counters,
// but allocating and freeing through the fork kernel. The template
// must be quiescent (no concurrent Get/Put) while cloning.
func (p *Pool) Clone(stacks Allocator) *Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := &Pool{
		stacks:   stacks,
		heads:    make([]atomic.Uint64, len(p.heads)),
		nodes:    append([]node(nil), p.nodes...),
		freeList: append([]uint32(nil), p.freeList...),
	}
	for i := range p.heads {
		n.heads[i].Store(p.heads[i].Load())
	}
	n.allocs.Store(p.allocs.Load())
	n.frees.Store(p.frees.Load())
	n.gets.Store(p.gets.Load())
	n.puts.Store(p.puts.Load())
	return n
}

// Stats returns cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocs: p.allocs.Load(), Frees: p.frees.Load(),
		Gets: p.gets.Load(), Puts: p.puts.Load(),
	}
}
