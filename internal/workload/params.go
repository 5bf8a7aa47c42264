package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParamSpec declares one tunable of an experiment: its name, what it
// means, the default that reproduces the paper's figure bit-identically,
// and (for size knobs) the reduced value a -quick smoke pass substitutes.
type ParamSpec struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
	// Default is the full-scale value. Defaults are the contract: running
	// an experiment with its defaults must reproduce the recorded figure
	// exactly, so lifting a hardcoded constant (an op count, a seed) into
	// a ParamSpec must carry the constant here unchanged.
	Default int64 `json:"default"`
	// Quick, when nonzero, replaces Default under -quick. Seeds and other
	// value-like params leave it zero; only work-size knobs shrink.
	Quick int64 `json:"quick,omitempty"`
	// Min and Max, when nonzero, bound the values the parameter accepts,
	// inclusive; zero leaves that side open. Overrides outside the bounds
	// are rejected before anything runs, and Default and Quick must lie
	// inside them (Register checks).
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
}

// check reports the first of vals outside the spec's bounds.
func (s ParamSpec) check(vals ...int64) error {
	for _, v := range vals {
		if (s.Min != 0 && v < s.Min) || (s.Max != 0 && v > s.Max) {
			return fmt.Errorf("parameter %q: %d is out of range (%s)", s.Name, v, s.bounds())
		}
	}
	return nil
}

// bounds renders the accepted interval ("1..8", ">= 1", "<= 8").
func (s ParamSpec) bounds() string {
	switch {
	case s.Min != 0 && s.Max != 0:
		return fmt.Sprintf("%d..%d", s.Min, s.Max)
	case s.Min != 0:
		return fmt.Sprintf(">= %d", s.Min)
	case s.Max != 0:
		return fmt.Sprintf("<= %d", s.Max)
	}
	return "any"
}

// Params is a resolved set of parameter values for one experiment run.
// Construct it with Experiment.Params (defaults, optionally quick-scaled)
// and adjust with Set; Run reads values through Int/Int64.
type Params struct {
	exp  *Experiment
	vals map[string]int64
}

// Set overrides one parameter by name, as benchtool's -p key=val does.
// Unknown names are an error that lists what the experiment accepts, and
// so is a value outside the parameter's bounds.
func (p Params) Set(name string, v int64) error {
	s, err := p.exp.spec(name)
	if err != nil {
		return err
	}
	if err := s.check(v); err != nil {
		return err
	}
	p.vals[name] = v
	return nil
}

// SetString parses a -p key=val pair.
func (p Params) SetString(name, val string) error {
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		if strings.Contains(val, "..") {
			return fmt.Errorf("parameter %q: %q is a range — ranges sweep one table per point and are expanded by the runner, not set as a single value", name, val)
		}
		return fmt.Errorf("parameter %q: %q is not an integer", name, val)
	}
	return p.Set(name, v)
}

// Clone returns an independent copy: Set on the clone leaves the
// original untouched. Sweep points each get their own.
func (p Params) Clone() Params {
	vals := make(map[string]int64, len(p.vals))
	for k, v := range p.vals {
		vals[k] = v
	}
	return Params{exp: p.exp, vals: vals}
}

// maxRangePoints caps how many values one -p range may expand to; past
// this a sweep is almost certainly a typo ("1..1600" for "1600").
const maxRangePoints = 4096

// ParseRange parses benchtool's sweep syntax "lo..hi[:step]" into its
// individual values, inclusive on both ends (a short final step lands on
// the last value ≤ hi). The bool reports whether val uses range syntax
// at all; plain integers return (nil, false, nil) so callers fall back
// to SetString.
func ParseRange(val string) ([]int64, bool, error) {
	i := strings.Index(val, "..")
	if i < 1 { // no ".." (or nothing before it: "..8" is not a range)
		return nil, false, nil
	}
	rest := val[i+2:]
	step := int64(1)
	if j := strings.IndexByte(rest, ':'); j >= 0 {
		s, err := strconv.ParseInt(rest[j+1:], 10, 64)
		if err != nil || s <= 0 {
			return nil, true, fmt.Errorf("range %q: step %q must be a positive integer", val, rest[j+1:])
		}
		step, rest = s, rest[:j]
	}
	lo, err := strconv.ParseInt(val[:i], 10, 64)
	if err != nil {
		return nil, true, fmt.Errorf("range %q: bad lower bound %q", val, val[:i])
	}
	hi, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return nil, true, fmt.Errorf("range %q: bad upper bound %q", val, rest)
	}
	if hi < lo {
		return nil, true, fmt.Errorf("range %q: upper bound below lower", val)
	}
	if (hi-lo)/step+1 > maxRangePoints {
		return nil, true, fmt.Errorf("range %q expands to more than %d points", val, maxRangePoints)
	}
	var out []int64
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out, true, nil
}

// Int returns a parameter as int; asking for an undeclared parameter is a
// programming error in the experiment and panics.
func (p Params) Int(name string) int { return int(p.Int64(name)) }

// Int64 returns a parameter's value.
func (p Params) Int64(name string) int64 {
	v, ok := p.vals[name]
	if !ok {
		panic(fmt.Sprintf("workload: experiment %q read undeclared parameter %q", p.exp.Name, name))
	}
	return v
}

// Map returns the resolved values keyed by name (for JSON records).
func (p Params) Map() map[string]int64 {
	out := make(map[string]int64, len(p.vals))
	for k, v := range p.vals {
		out[k] = v
	}
	return out
}

// String renders the values in declaration order, for list output and
// error messages.
func (p Params) String() string {
	var b strings.Builder
	for i, s := range p.exp.ParamSpecs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", s.Name, p.vals[s.Name])
	}
	return b.String()
}

// spec returns the named parameter's declaration; an unknown name is an
// error that lists what the experiment accepts.
func (e *Experiment) spec(name string) (ParamSpec, error) {
	for _, s := range e.ParamSpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return ParamSpec{}, fmt.Errorf("experiment %q has no parameter %q (has: %s)",
		e.Name, name, strings.Join(e.paramNames(), ", "))
}

func (e *Experiment) paramNames() []string {
	names := make([]string, len(e.ParamSpecs))
	for i, s := range e.ParamSpecs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
