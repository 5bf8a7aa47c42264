package workload

import (
	"fmt"
	"strings"

	"adelie/internal/attack"
)

// Experiment is the descriptor every figure, table, sweep and scenario of
// the evaluation registers: what it reproduces, which knobs it takes, and
// how to run it. One API for all of them is what keeps the Nth scenario a
// one-file change instead of a benchtool-switch + bench_test copy-paste.
type Experiment struct {
	// Name is the experiment id ("fig5b", "table2", "coalesce") — also
	// the historical benchtool argument.
	Name string `json:"name"`
	// Figure names the paper artifact this reproduces ("Fig. 5b",
	// "Table 2", "§5.4").
	Figure string `json:"figure"`
	// Doc is the one-line description shown by benchtool list.
	Doc string `json:"doc"`
	// ParamSpecs declare the tunables. Every experiment that boots a
	// machine declares a "seed" param; the op-count knob is named "ops".
	ParamSpecs []ParamSpec `json:"params,omitempty"`
	// Run executes the experiment and shapes its result as a Table.
	// With default params the table's rendered content must be
	// bit-identical run to run (the determinism tests enforce this).
	Run func(Params) (*Table, error) `json:"-"`
	// Headline extracts the figure's headline metrics from a result
	// table (bench_test reports them via b.ReportMetric). Optional.
	Headline func(*Table) map[string]float64 `json:"-"`
}

// Params resolves the experiment's parameter defaults; quick substitutes
// the reduced smoke-pass values where declared.
func (e *Experiment) Params(quick bool) Params {
	vals := make(map[string]int64, len(e.ParamSpecs))
	for _, s := range e.ParamSpecs {
		v := s.Default
		if quick && s.Quick != 0 {
			v = s.Quick
		}
		vals[s.Name] = v
	}
	return Params{exp: e, vals: vals}
}

// Registry holds experiments in registration order (the order `benchtool
// run all` executes and `list` prints — figure order, matching the paper).
type Registry struct {
	order  []*Experiment
	byName map[string]*Experiment
}

// NewRegistry builds a registry from descriptors, validating each.
func NewRegistry(exps ...*Experiment) *Registry {
	r := &Registry{byName: map[string]*Experiment{}}
	for _, e := range exps {
		r.Register(e)
	}
	return r
}

// Register adds one experiment. Registration is infallible or loud:
// a malformed descriptor (duplicate or empty name, missing Run, invalid
// quick scaling, a default or quick value outside its bounds) panics at
// init time rather than surfacing mid-sweep.
func (r *Registry) Register(e *Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("workload: experiment needs a name and a Run function")
	}
	if _, dup := r.byName[e.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate experiment %q", e.Name))
	}
	seen := map[string]bool{}
	for _, s := range e.ParamSpecs {
		if s.Name == "" || seen[s.Name] {
			panic(fmt.Sprintf("workload: experiment %q: bad or duplicate param %q", e.Name, s.Name))
		}
		seen[s.Name] = true
		if s.Quick < 0 || (s.Quick != 0 && s.Quick > s.Default) {
			panic(fmt.Sprintf("workload: experiment %q: param %q quick value %d not in (0, %d]",
				e.Name, s.Name, s.Quick, s.Default))
		}
		if err := s.check(s.Default); err != nil {
			panic(fmt.Sprintf("workload: experiment %q: default: %v", e.Name, err))
		}
		if s.Quick != 0 {
			if err := s.check(s.Quick); err != nil {
				panic(fmt.Sprintf("workload: experiment %q: quick value: %v", e.Name, err))
			}
		}
		if strings.HasSuffix(s.Name, "seed") && s.Quick != 0 {
			panic(fmt.Sprintf("workload: experiment %q: seed param %q must not quick-scale", e.Name, s.Name))
		}
	}
	r.byName[e.Name] = e
	r.order = append(r.order, e)
}

// Lookup resolves a name.
func (r *Registry) Lookup(name string) (*Experiment, bool) {
	e, ok := r.byName[name]
	return e, ok
}

// All returns the experiments in registration order.
func (r *Registry) All() []*Experiment { return append([]*Experiment(nil), r.order...) }

// Names returns the experiment names in registration order.
func (r *Registry) Names() []string {
	names := make([]string, len(r.order))
	for i, e := range r.order {
		names[i] = e.Name
	}
	return names
}

// Suggest returns the registered name closest to the given (unknown) one,
// or "" when nothing is plausibly close — the "did you mean" half of
// benchtool's unknown-experiment error. Case slips are forgiven, and a
// name the query is a strict prefix of beats an edit-distance tie
// ("fig5" suggests "fig5a", not "fig1").
func (r *Registry) Suggest(name string) string {
	q := strings.ToLower(name)
	for _, e := range r.order {
		if q != "" && strings.HasPrefix(strings.ToLower(e.Name), q) {
			return e.Name
		}
	}
	best, bestDist := "", len(q)/2+2
	for _, e := range r.order {
		if d := editDistance(q, strings.ToLower(e.Name)); d < bestDist {
			best, bestDist = e.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Experiments is the package-level registry: every figure, table and
// scenario of the evaluation, in paper order. cmd/benchtool drives it
// generically; bench_test.go and the determinism tests iterate it.
var Experiments = NewRegistry(
	expFig1,
	expFig5a, expFig5b, expFig5c, expFig5d,
	expFig6, expFig7, expFig8, expFig9, expFig10,
	expTable2,
	expScalability,
	expSecurity,
	expAblation,
	expCoalesce,
	expServer,
)

// ---------------------------------------------------------------------------
// Fig. 1 — background data series (no machine, no params).

var expFig1 = &Experiment{
	Name:   "fig1",
	Figure: "Fig. 1",
	Doc:    "driver CVEs per year (synthesized series)",
	Run: func(Params) (*Table, error) {
		t := &Table{
			Title: "Fig. 1 — driver CVEs per year (synthesized series, see EXPERIMENTS.md)",
			Columns: []Column{
				Col("year", "%-6d", "%-6s"),
				Col("linux", "%8d", "%8s"),
				Col("windows", "%8d", "%8s"),
			},
		}
		for _, p := range attack.CVEData {
			t.AddRow(p.Year, p.Linux, p.Windows)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		return map[string]float64{
			"linux-cves":   float64(last[1].(int)),
			"windows-cves": float64(last[2].(int)),
		}
	},
}
