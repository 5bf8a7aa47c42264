package engine

// The virtual clock. Simulated time advances only through Advance calls
// made by the engine's accounting pass, which runs single-threaded at
// round barriers — so clocked actors (the re-randomizer kthread, future
// async devices) always step deterministically with no vCPU running.

// Actor is a component stepped on the virtual clock: each time the
// clock crosses a multiple of its period, Step runs once. The paper's
// randomizer kthread is the canonical actor; the abstraction exists so
// later subsystems (device interrupt mills, watchdogs) join the same
// deterministic timeline instead of being inlined into the op loop.
type Actor struct {
	Name     string
	PeriodUs float64
	Step     func() error
}

type actorState struct {
	Actor
	nextUs float64
}

// Clock is the deterministic virtual clock.
type Clock struct {
	nowUs  float64
	actors []*actorState
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// NowUs returns the current virtual time in microseconds.
func (c *Clock) NowUs() float64 { return c.nowUs }

// Schedule registers an actor to be stepped every PeriodUs of virtual
// time, first at one full period from now. Actors with PeriodUs <= 0
// are ignored.
func (c *Clock) Schedule(a Actor) {
	if a.PeriodUs <= 0 {
		return
	}
	c.actors = append(c.actors, &actorState{Actor: a, nextUs: c.nowUs + a.PeriodUs})
}

// Advance moves virtual time forward by dUs, firing every actor whose
// deadline is crossed (repeatedly, if more than one period elapsed).
// Actors fire in deadline order; ties resolve in registration order.
func (c *Clock) Advance(dUs float64) error {
	c.nowUs += dUs
	for {
		var due *actorState
		for _, a := range c.actors {
			if a.nextUs <= c.nowUs && (due == nil || a.nextUs < due.nextUs) {
				due = a
			}
		}
		if due == nil {
			return nil
		}
		if err := due.Step(); err != nil {
			return err
		}
		due.nextUs += due.PeriodUs
	}
}
