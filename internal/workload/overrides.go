package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Override resolution: the one code path that turns "-p key=val" /
// "key=lo..hi[:step]" pairs (benchtool flags, the fleet service's JSON
// params) into a resolved Params set plus at most one sweep range.
// benchtool and internal/service both resolve through here, so
// default/quick/range semantics cannot drift between the CLI and the
// HTTP API.

// SplitOverride splits one "key=val" pair.
func SplitOverride(kv string) (key, val string, err error) {
	key, val, ok := strings.Cut(kv, "=")
	if !ok || key == "" {
		return "", "", fmt.Errorf("override %q: want key=val", kv)
	}
	return key, val, nil
}

// ResolveOverrides resolves the experiment's defaults (quick-scaled when
// quick), then applies the overrides in order. A value may be a plain
// integer or a range "lo..hi[:step]"; at most one parameter may carry a
// range, returned as (sweepParam, sweepValues) with the parameter itself
// set to the first point (sweepParam == "" means no range). Malformed
// pairs, bad values and values outside the parameter's Min/Max bounds
// (any point of a range) always error; a key the experiment does not
// declare errors under strict and is skipped otherwise — benchtool's
// multi-experiment runs tune each experiment with the overrides it has,
// while the service rejects unknown keys per request.
func (e *Experiment) ResolveOverrides(quick bool, overrides []string, strict bool) (Params, string, []int64, error) {
	p := e.Params(quick)
	var sweepParam string
	var sweepValues []int64
	for _, kv := range overrides {
		k, vals, isRange, err := parseOverride(kv)
		if err != nil {
			return p, "", nil, err
		}
		s, err := e.spec(k)
		if err != nil {
			if strict {
				return p, "", nil, err
			}
			continue // this experiment has no such param
		}
		if err := s.check(vals...); err != nil {
			return p, "", nil, err
		}
		p.vals[k] = vals[0]
		if isRange {
			if sweepParam != "" && sweepParam != k {
				return p, "", nil, fmt.Errorf("%s: one -p range per run (have %s and %s)", e.Name, sweepParam, k)
			}
			sweepParam, sweepValues = k, vals
		}
	}
	return p, sweepParam, sweepValues, nil
}

// parseOverride splits and parses one "key=val" or "key=lo..hi[:step]"
// pair into its key and the value(s) it sets.
func parseOverride(kv string) (key string, vals []int64, isRange bool, err error) {
	k, v, err := SplitOverride(kv)
	if err != nil {
		return "", nil, false, err
	}
	vals, isRange, err = ParseRange(v)
	if isRange {
		if err != nil {
			return "", nil, true, err
		}
		return k, vals, true, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return "", nil, false, fmt.Errorf("parameter %q: %q is not an integer (or lo..hi[:step] range)", k, v)
	}
	return k, []int64{n}, false, nil
}

// CheckOverrides validates a set of overrides against a selection of
// experiment names up front: every pair must be well-formed, every value
// must parse as an integer or range and lie inside the bounds of every
// selected experiment declaring its key, and every key must be declared by
// at least one selected experiment — catching a typo'd key or value
// before anything runs beats silently running everything at defaults.
func (r *Registry) CheckOverrides(names, overrides []string) error {
	for _, kv := range overrides {
		k, vals, _, err := parseOverride(kv)
		if err != nil {
			return fmt.Errorf("-p %s: %w", kv, err)
		}
		matched := false
		for _, name := range names {
			exp, ok := r.Lookup(name)
			if !ok {
				continue
			}
			s, err := exp.spec(k)
			if err != nil {
				continue
			}
			matched = true
			if err := s.check(vals...); err != nil {
				return fmt.Errorf("-p %s: %s: %w", kv, name, err)
			}
		}
		if !matched {
			return fmt.Errorf("-p %s: no selected experiment has parameter %q (see benchtool list)", kv, k)
		}
	}
	return nil
}
