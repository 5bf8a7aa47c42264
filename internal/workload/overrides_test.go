package workload

import (
	"fmt"
	"strings"
	"testing"
)

func TestSplitOverride(t *testing.T) {
	if k, v, err := SplitOverride("ops=100"); err != nil || k != "ops" || v != "100" {
		t.Fatalf("SplitOverride(ops=100) = %q, %q, %v", k, v, err)
	}
	// "=" in the value survives (first cut wins).
	if k, v, err := SplitOverride("a=b=c"); err != nil || k != "a" || v != "b=c" {
		t.Fatalf("SplitOverride(a=b=c) = %q, %q, %v", k, v, err)
	}
	for _, bad := range []string{"ops", "=100", ""} {
		if _, _, err := SplitOverride(bad); err == nil {
			t.Fatalf("SplitOverride(%q): want error", bad)
		}
	}
}

func TestResolveOverrides(t *testing.T) {
	exp, ok := Experiments.Lookup("fig9")
	if !ok {
		t.Fatal("fig9 not registered")
	}

	// Plain override lands; untouched params keep their defaults.
	p, sweepParam, sweepValues, err := exp.ResolveOverrides(false, []string{"ops=123"}, true)
	if err != nil || sweepParam != "" || sweepValues != nil {
		t.Fatalf("plain override: %v %q %v", err, sweepParam, sweepValues)
	}
	if got := p.Int64("ops"); got != 123 {
		t.Fatalf("ops = %d, want 123", got)
	}

	// Quick defaults apply before overrides.
	pq, _, _, err := exp.ResolveOverrides(true, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	pd, _, _, _ := exp.ResolveOverrides(false, nil, true)
	if pq.Int64("ops") >= pd.Int64("ops") {
		t.Fatalf("quick ops %d not reduced from default %d", pq.Int64("ops"), pd.Int64("ops"))
	}

	// A range yields the sweep and pins the param to the first point.
	p, sweepParam, sweepValues, err = exp.ResolveOverrides(false, []string{"ops=100..300:100"}, true)
	if err != nil || sweepParam != "ops" {
		t.Fatalf("range override: %v %q", err, sweepParam)
	}
	if len(sweepValues) != 3 || sweepValues[0] != 100 || sweepValues[2] != 300 {
		t.Fatalf("sweep values: %v", sweepValues)
	}
	if got := p.Int64("ops"); got != 100 {
		t.Fatalf("ops pinned to %d, want first point 100", got)
	}

	// Two distinct ranges is an error.
	if _, _, _, err := exp.ResolveOverrides(false, []string{"ops=1..2", "seed=3..4"}, true); err == nil ||
		!strings.Contains(err.Error(), "one -p range per run") {
		t.Fatalf("two ranges: %v", err)
	}

	// Unknown keys: error under strict, skipped otherwise.
	if _, _, _, err := exp.ResolveOverrides(false, []string{"bogus=1"}, true); err == nil {
		t.Fatal("strict unknown key: want error")
	}
	if _, _, _, err := exp.ResolveOverrides(false, []string{"bogus=1"}, false); err != nil {
		t.Fatalf("lenient unknown key: %v", err)
	}

	// Malformed values error regardless of strictness.
	for _, bad := range []string{"ops=abc", "ops=1.5", "ops"} {
		if _, _, _, err := exp.ResolveOverrides(false, []string{bad}, false); err == nil {
			t.Fatalf("ResolveOverrides(%q): want error", bad)
		}
	}
}

func TestCheckOverrides(t *testing.T) {
	if err := Experiments.CheckOverrides([]string{"fig9", "fig5b"}, []string{"ops=100", "seed=2"}); err != nil {
		t.Fatalf("valid overrides: %v", err)
	}
	// Key matching any one selected experiment is enough.
	if err := Experiments.CheckOverrides([]string{"fig1", "fig9"}, []string{"ops=100"}); err != nil {
		t.Fatalf("partially-matched key: %v", err)
	}
	for _, tc := range []struct {
		overrides []string
		want      string
	}{
		{[]string{"bogus=1"}, "no selected experiment"},
		{[]string{"ops=abc"}, "not an integer"},
		{[]string{"ops=5..1"}, ""},
		{[]string{"ops"}, "want key=val"},
	} {
		err := Experiments.CheckOverrides([]string{"fig9"}, tc.overrides)
		if err == nil {
			t.Fatalf("CheckOverrides(%v): want error", tc.overrides)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("CheckOverrides(%v) = %v, want mention of %q", tc.overrides, err, tc.want)
		}
	}
}

func TestOverrideBounds(t *testing.T) {
	// Values outside a parameter's Min/Max are rejected by both the
	// per-experiment resolution (strict or not) and benchtool's up-front
	// check, for plain values and for every point of a range.
	for _, tc := range []struct {
		exp, override string
		want          string // "" = accepted
	}{
		{"server", "ops=-5", `"ops": -5 is out of range (>= 1)`},
		{"server", "ops=0", `"ops": 0 is out of range`},
		{"server", "ops=1", ""},
		{"server", "queues=0", `"queues": 0 is out of range (1..8)`},
		{"server", "queues=100", `"queues": 100 is out of range (1..8)`},
		{"server", "queues=8", ""},
		{"server", "workers=0", `"workers": 0 is out of range (1..20)`},
		{"server", "workers=21", `"workers": 21 is out of range (1..20)`},
		{"server", "workers=20", ""},
		{"server", "queues=1..16", `"queues": 9 is out of range`},
		{"fig9", "ops=0..100:25", `"ops": 0 is out of range`},
		{"fig9", "ops=25..100:25", ""},
		{"fig9", "seed=-3", ""}, // unbounded
	} {
		exp, ok := Experiments.Lookup(tc.exp)
		if !ok {
			t.Fatalf("%s not registered", tc.exp)
		}
		for _, strict := range []bool{true, false} {
			_, _, _, err := exp.ResolveOverrides(true, []string{tc.override}, strict)
			checkBoundsErr(t, fmt.Sprintf("%s ResolveOverrides(%s, strict=%v)", tc.exp, tc.override, strict), err, tc.want)
		}
		err := Experiments.CheckOverrides([]string{tc.exp}, []string{tc.override})
		checkBoundsErr(t, fmt.Sprintf("%s CheckOverrides(%s)", tc.exp, tc.override), err, tc.want)
	}
}

func checkBoundsErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: %v, want accepted", what, err)
	case want != "" && err == nil:
		t.Errorf("%s: accepted, want error mentioning %s", what, want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("%s: %v, want mention of %s", what, err, want)
	}
}

func TestParamsSetEnforcesBounds(t *testing.T) {
	exp, _ := Experiments.Lookup("server")
	p := exp.Params(true)
	if err := p.Set("queues", 9); err == nil {
		t.Fatal("Set accepted queues=9")
	}
	if got := p.Int("queues"); got != 4 {
		t.Fatalf("rejected Set changed queues to %d", got)
	}
}
