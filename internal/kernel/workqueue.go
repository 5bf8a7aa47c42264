package kernel

import (
	"fmt"

	"adelie/internal/cpu"
)

// Workqueue support models the §3.4 corner case: "softirqs/workqueues do
// not require mr_finish to wait until the request is completed, and the
// re-randomization routine will only need to modify the function handler
// address. Only inside the actual handler (when scheduled), do we need to
// call mr_start/mr_finish again."
//
// A module schedules deferred work with a handler address inside its
// movable part. The scheduling call's mr_start/mr_finish bracket ends
// when queue_work returns — it does NOT pin the module until the handler
// runs. Instead, the re-randomizer slides pending handler addresses when
// the module moves, and the work runner brackets each handler execution
// with its own critical section.

// workItem is one pending deferred-work entry.
type workItem struct {
	fn  uint64 // handler address (movable; slid on re-randomization)
	arg uint64
}

// QueueWork schedules fn(arg) for deferred execution. Drivers reach it
// through the "queue_work" native.
func (k *Kernel) QueueWork(fn, arg uint64) {
	k.mu.Lock()
	k.workqueue = append(k.workqueue, workItem{fn: fn, arg: arg})
	k.mu.Unlock()
}

// RunPendingWork executes every queued item on c, bracketing each handler
// with mr_start/mr_finish as §3.4 prescribes for re-entry from a
// workqueue context. It returns the number of handlers run.
func (k *Kernel) RunPendingWork(c *cpu.CPU) (int, error) {
	k.mu.Lock()
	items := k.workqueue
	k.workqueue = nil
	k.mu.Unlock()
	for i, it := range items {
		k.SMR.Enter(c.ID)
		_, err := c.Call(it.fn, it.arg)
		k.SMR.Leave(c.ID)
		if err != nil {
			// Re-queue the unprocessed tail so nothing is lost.
			k.mu.Lock()
			k.workqueue = append(items[i+1:], k.workqueue...)
			k.mu.Unlock()
			return i, fmt.Errorf("kernel: work item %d: %w", i, err)
		}
	}
	return len(items), nil
}

// slideWorkqueue retargets pending handlers that point into the movable
// range being moved — the "modify the function handler address" step of
// §3.4. Called by Module.Rerandomize under k's module lock.
func (k *Kernel) slideWorkqueue(oldBase, size, delta uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range k.workqueue {
		if fn := k.workqueue[i].fn; fn >= oldBase && fn < oldBase+size {
			k.workqueue[i].fn = fn + delta
		}
	}
}
