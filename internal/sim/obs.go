package sim

import "adelie/internal/obs"

// AttachObs wires the observability subsystem to the machine: tr (may
// be nil) becomes the machine's default event tracer — every subsequent
// Run whose RunConfig.Trace is unset records into it — and prof (may be
// nil) installs virtual-clock sample hooks on every vCPU that persist
// until detached with AttachObs(nil-or-tr, nil).
//
// Samples are symbolized eagerly, at sample time, against the kernel's
// live module map: a sample taken inside a re-randomizable driver
// attributes to "module;function" regardless of where re-randomization
// has currently placed the function, so profiles aggregate across
// rerand epochs. Eager symbolization is safe because module part bases
// only move at engine barriers, when every lane is quiescent, and
// Module.FindFunc takes the module lock. The hooks run off the
// simulated clock — sampling never adds simulated cycles — and a nil
// sampler costs one pointer compare per block, so disabled
// observability cannot perturb any figure.
func (m *Machine) AttachObs(tr *obs.Tracer, prof *obs.Profiler) {
	m.tracer = tr
	m.prof = prof
	m.installProfiler(prof)
}

// installProfiler points every vCPU's sample hook at p's lanes (or
// clears the hooks when p is nil). Each vCPU gets its own single-writer
// lane, so samples stay attributed to the simulated CPU that took them
// and the hot path takes no lock. Clearing skips a fork's untouched
// vCPUs: a fresh clone has no sampler, so cloning one only to clear it
// would be wasted work. Installing covers every vCPU, so vCPUs that only
// run ISRs are sampled too.
func (m *Machine) installProfiler(p *obs.Profiler) {
	for i := 0; i < m.K.NumCPUs(); i++ {
		if p == nil {
			if c := m.K.LoadedCPU(i); c != nil {
				c.SetSampler(0, nil)
			}
			continue
		}
		c := m.K.CPU(i)
		lane := p.NewLane()
		c.SetSampler(p.Period(), func(va uint64) {
			if n, ok := c.NativeTable()[va]; ok {
				lane.Hit("kernel;" + n.Name)
				return
			}
			lane.Hit(m.symbolizeModule(va))
		})
	}
}

// symbolizeModule resolves a sampled VA to "module;function" against
// the currently loaded modules. VAs that fall outside every module (or
// inside a module but outside any function symbol) aggregate under
// "[unknown]" — never under the transient address, which would smear
// one function across rerand epochs and break run-to-run determinism
// of the rendered profile.
func (m *Machine) symbolizeModule(va uint64) string {
	for _, mod := range m.K.Modules() {
		if fn, ok := mod.FindFunc(va); ok {
			return mod.Name + ";" + fn
		}
	}
	return "[unknown]"
}
