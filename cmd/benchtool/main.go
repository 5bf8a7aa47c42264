// Command benchtool regenerates the paper's tables and figures by driving
// the typed experiment registry in internal/workload. Every experiment —
// each figure, table, ablation and scenario sweep of the evaluation
// (§5–§6) — registers a descriptor (name, params with defaults, Run);
// benchtool is a generic front end over them:
//
//	benchtool list                     # registered experiments + params
//	benchtool run fig5b fig9           # run by name
//	benchtool run all                  # everything, in paper order
//	benchtool -quick run all           # reduced op counts, smoke pass
//	benchtool -p ops=400 -p seed=7 run fig5b   # per-param overrides
//	benchtool -p ops=100..1600:100 run fig5b   # sweep: one table per point
//	benchtool -parallel -p ops=100..1600:100 run fig5b  # fork-parallel sweep
//	benchtool -json FILE run all       # structured Table JSON per figure
//	benchtool -csv FILE run all        # long-form CSV, one line per cell
//	benchtool validate FILE            # parse-check a -json record
//
// A -p value may be a range "lo..hi[:step]" (step defaults to 1): the
// experiment runs once per point, producing one table per point. With
// -parallel the points fan out across a worker pool and every machine
// boot is served by a copy-on-write fork of a snapshotted template
// instead of a cold boot; the output is bit-identical to the serial
// sweep (CI diffs the two modes).
//
// The bare historical spelling (`benchtool fig5b`, `benchtool all`) still
// works. With default params every experiment reproduces its recorded
// figure bit-identically.
//
// The selfbench experiment measures the harness itself (wall-clock time
// per interpreted operation on the hot figure paths) rather than the
// simulated metrics; with -json FILE the results are written as a JSON
// record so successive PRs can track the interpreter's real speed
// (BENCH_seed.json, BENCH_pr1.json, ...). Its final leg stands up an
// in-process fleet service (internal/service) and records service_rps /
// service_p99_us under ~1k concurrent load-generator requests. The
// -check flag compares a recorded selfbench JSON against the best
// committed BENCH_*.json and exits non-zero on a gated-metric
// regression past the margin — the CI bench gate.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"adelie/internal/service"
	"adelie/internal/workload"
)

// badOverrides marks a -p override rejected before anything ran (a
// usage error: exit status 2).
type badOverrides struct{ error }

func (e badOverrides) Unwrap() error { return e.error }

// paramFlags collects repeated -p key=val overrides.
type paramFlags []string

func (p *paramFlags) String() string { return strings.Join(*p, ",") }
func (p *paramFlags) Set(s string) error {
	if _, _, err := workload.SplitOverride(s); err != nil {
		return err
	}
	*p = append(*p, s)
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "reduced op counts (each param's quick value)")
	jsonPath := flag.String("json", "", "write results as JSON: selfbench record, or structured figure tables")
	csvPath := flag.String("csv", "", "write figure results as long-form CSV (one line per table cell)")
	checkPath := flag.String("check", "", "compare this selfbench JSON against the best BENCH_*.json; exit 1 on a gated-metric regression")
	reps := flag.Int("reps", 1, "selfbench repetitions per path; the minimum wall time is recorded (noisy hosts)")
	parallel := flag.Bool("parallel", false, "run -p range sweeps fork-parallel (snapshot/fork boot pool + worker fan-out)")
	tracePath := flag.String("trace", "", "record the run's deterministic event trace as Chrome trace_event JSON at FILE (open in Perfetto)")
	profPath := flag.String("prof", "", "sample the guest on the virtual clock; write collapsed stacks to FILE and a flat table to stdout")
	var overrides paramFlags
	flag.Var(&overrides, "p", "override an experiment parameter (key=val or key=lo..hi[:step], repeatable)")
	flag.Parse()
	args := flag.Args()
	if *checkPath != "" {
		if err := checkRegression(*checkPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchtool: check: %v\n", err)
			os.Exit(1)
		}
		if len(args) == 0 {
			return
		}
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		list()
		return
	case "validate":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		if err := validate(args[1]); err != nil {
			fmt.Fprintf(os.Stderr, "benchtool: validate: %v\n", err)
			os.Exit(1)
		}
		return
	case "report":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		if err := report(args[1], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchtool: report: %v\n", err)
			os.Exit(1)
		}
		return
	case "run":
		args = args[1:]
		if len(args) == 0 {
			usage()
			os.Exit(2)
		}
	}
	// Anything else: experiment names directly (the historical spelling).
	if err := runExperiments(args, overrides, *quick, *jsonPath, *csvPath, *reps, *parallel, *tracePath, *profPath); err != nil {
		fmt.Fprintf(os.Stderr, "benchtool: %v\n", err)
		var bad badOverrides
		if errors.As(err, &bad) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: benchtool [-quick] [-parallel] [-p key=val|key=lo..hi[:step]]... [-json FILE] [-csv FILE] [-check FILE] [-reps N] [-trace FILE] [-prof FILE] <command>
commands:
  list                list registered experiments and their parameters
  run <name...|all>   run experiments by registry name (also: bare names)
  validate FILE       parse-check a -json figure record
  report FILE         render a -json figure record as Markdown (EXPERIMENTS.md)
  selfbench           harness wall-clock benchmark (see -json / -check / -reps)
experiments:`)
	fmt.Fprintf(os.Stderr, "  %s selfbench all\n", strings.Join(workload.Experiments.Names(), " "))
}

// list prints the registry: one line per experiment plus its params.
func list() {
	for _, e := range workload.Experiments.All() {
		fmt.Printf("%-12s %-22s %s\n", e.Name, e.Figure, e.Doc)
		for _, s := range e.ParamSpecs {
			q := ""
			if s.Quick != 0 {
				q = fmt.Sprintf(" (quick %d)", s.Quick)
			}
			fmt.Printf("             -p %s=%d%s  %s\n", s.Name, s.Default, q, s.Doc)
		}
	}
	fmt.Printf("%-12s %-22s %s\n", "selfbench", "—", "harness wall-clock per simulated op (see -json/-check)")
}

// experimentRecord is one experiment's structured result in a -json file.
type experimentRecord struct {
	Name   string           `json:"name"`
	Params map[string]int64 `json:"params"`
	Table  *workload.Table  `json:"table"`

	// paramsStr is the resolved params in declaration order — the
	// deterministic rendering -csv uses (Params is a map; iterating it
	// would make the CSV bytes flap run to run).
	paramsStr string
}

// figureRecord is the -json shape for figure runs (selfbench keeps its
// own selfbenchRecord shape).
type figureRecord struct {
	GoVersion   string             `json:"go_version"`
	Quick       bool               `json:"quick"`
	Experiments []experimentRecord `json:"experiments"`
}

func runExperiments(names []string, overrides paramFlags, quick bool, jsonPath, csvPath string, reps int, parallel bool, tracePath, profPath string) error {
	if len(names) == 1 && names[0] == "all" {
		names = workload.Experiments.Names()
	}
	// -trace requires the serial boot order the trace's process
	// numbering is defined by; a fork-parallel sweep boots machines from
	// a worker pool in host-scheduling order, which would make pid
	// assignment nondeterministic.
	if tracePath != "" && parallel {
		return fmt.Errorf("-trace cannot be combined with -parallel: machine boot order must be serial for the trace to be deterministic")
	}
	if tracePath != "" || profPath != "" {
		for _, n := range names {
			if n == "selfbench" {
				return fmt.Errorf("-trace/-prof do not apply to selfbench (it manages its own observability session)")
			}
		}
	}
	// selfbench's -json record is the BENCH_*.json trajectory format the
	// -check gate reads; figure runs write structured Table JSON. One
	// file can't be both, so mixing them under -json is an error rather
	// than a silent drop of either record.
	if jsonPath != "" && len(names) > 1 {
		for _, n := range names {
			if n == "selfbench" {
				return fmt.Errorf("-json: cannot mix selfbench with figure experiments in one run; invoke them separately")
			}
		}
	}
	// Every -p override must be well-formed and match at least one
	// selected experiment — catching a typo'd key or value up front
	// beats silently running everything at defaults.
	if err := workload.Experiments.CheckOverrides(names, overrides); err != nil {
		return badOverrides{err}
	}
	var obsSess *workload.ObsSession
	if tracePath != "" || profPath != "" {
		sess, end := workload.BeginObs(tracePath != "", profPath != "")
		obsSess = sess
		defer end()
	}
	rec := figureRecord{GoVersion: runtime.Version(), Quick: quick}
	wroteSelfbench := false
	for _, name := range names {
		if name == "selfbench" {
			// selfbench owns the -json path when present: its record is
			// the BENCH_*.json trajectory format the -check gate reads.
			scale := 1
			if quick {
				scale = 8
			}
			if err := selfbench(jsonPath, scale, reps); err != nil {
				return fmt.Errorf("selfbench: %w", err)
			}
			wroteSelfbench = jsonPath != ""
			continue
		}
		exp, ok := workload.Experiments.Lookup(name)
		if !ok {
			return unknownExperiment(name)
		}
		// In a multi-name run "-p ops=…" tunes the experiments that have
		// the param (non-strict resolution skips the others); the
		// CheckOverrides pre-pass above guarantees each key matched
		// somewhere and each value parses. The fleet service resolves its
		// JSON params through this same path, strictly.
		p, sweepParam, sweepValues, err := exp.ResolveOverrides(quick, overrides, false)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if sweepParam == "" {
			t, err := exp.Run(p)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			t.Fprint(os.Stdout)
			rec.Experiments = append(rec.Experiments, experimentRecord{
				Name: name, Params: p.Map(), Table: t, paramsStr: p.String(),
			})
			continue
		}
		pts, err := workload.RunSweep(exp, p, sweepParam, sweepValues, parallel, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, pt := range pts {
			pp := p.Clone()
			if err := pp.Set(pt.Param, pt.Value); err != nil {
				return err
			}
			fmt.Printf("\n-- %s %s=%d --\n", name, pt.Param, pt.Value)
			pt.Table.Fprint(os.Stdout)
			rec.Experiments = append(rec.Experiments, experimentRecord{
				Name: name, Params: pp.Map(), Table: pt.Table, paramsStr: pp.String(),
			})
		}
	}
	if jsonPath != "" && len(rec.Experiments) > 0 && !wroteSelfbench {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(jsonPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if csvPath != "" && len(rec.Experiments) > 0 {
		if err := writeCSV(csvPath, rec.Experiments); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if obsSess != nil {
		if err := writeObs(obsSess, tracePath, profPath); err != nil {
			return err
		}
	}
	return nil
}

// writeObs renders the observability session's artifacts: the Chrome
// trace_event JSON (byte-deterministic — CI diffs two runs) and the
// profile as a collapsed-stack file plus a flat table on stdout.
func writeObs(s *workload.ObsSession, tracePath, profPath string) error {
	if s.Trace != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := s.Trace.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", tracePath)
	}
	if s.Profile != nil {
		if err := s.Profile.WriteFlat(os.Stdout); err != nil {
			return err
		}
		f, err := os.Create(profPath)
		if err != nil {
			return err
		}
		if err := s.Profile.WriteCollapsed(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", profPath)
	}
	return nil
}

// writeCSV renders experiment results in long form — one line per table
// cell, `experiment,params,table,row,column,value` — the shape that
// joins sweep points into a single plottable file. Child tables (the
// ablation sections) flatten into the same stream under their own
// titles. Cells render with %v: integers stay integers and floats use
// Go's shortest round-trip form, so the bytes are deterministic and CI
// can diff serial against fork-parallel sweep output.
func writeCSV(path string, recs []experimentRecord) error {
	var buf strings.Builder
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{"experiment", "params", "table", "row", "column", "value"}); err != nil {
		return err
	}
	var emit func(rec experimentRecord, t *workload.Table) error
	emit = func(rec experimentRecord, t *workload.Table) error {
		for ri, row := range t.Rows {
			for ci, cell := range row {
				if err := w.Write([]string{
					rec.Name, rec.paramsStr, t.Title,
					strconv.Itoa(ri), t.Columns[ci].Name, fmt.Sprintf("%v", cell),
				}); err != nil {
					return err
				}
			}
		}
		for _, c := range t.Children {
			if err := emit(rec, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, rec := range recs {
		if err := emit(rec, rec.Table); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// unknownExperiment builds the error for a name the registry doesn't
// know: a closest-match suggestion plus the full list.
func unknownExperiment(name string) error {
	msg := fmt.Sprintf("unknown experiment %q", name)
	if s := workload.Experiments.Suggest(name); s != "" {
		msg += fmt.Sprintf("; did you mean %q?", s)
	}
	return fmt.Errorf("%s\nregistered: %s selfbench", msg, strings.Join(workload.Experiments.Names(), " "))
}

// validate parse-checks a figure -json record: every experiment entry
// must carry a non-empty table whose rows match its column schema. CI
// runs it after the `run all -quick -json` smoke step.
func validate(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := parseFigureRecord(b)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rec.Experiments) == 0 {
		// An empty record must fail loudly: a gate that "validates" a
		// run which recorded nothing would wave every regression
		// through. This covers {"experiments": []} and a bare [] alike.
		return fmt.Errorf("%s: no records", path)
	}
	var check func(name string, t *workload.Table) error
	check = func(name string, t *workload.Table) error {
		if t == nil {
			return fmt.Errorf("%s: experiment %s has no table", path, name)
		}
		if len(t.Rows) == 0 && len(t.Children) == 0 {
			return fmt.Errorf("%s: experiment %s: empty table %q", path, name, t.Title)
		}
		for i, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return fmt.Errorf("%s: experiment %s: table %q row %d has %d cells for %d columns",
					path, name, t.Title, i, len(row), len(t.Columns))
			}
		}
		for _, c := range t.Children {
			if err := check(name, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range rec.Experiments {
		if err := check(e.Name, e.Table); err != nil {
			return err
		}
	}
	fmt.Printf("validate: %s ok (%d experiments)\n", path, len(rec.Experiments))
	return nil
}

// report renders a -json figure record as the committed EXPERIMENTS.md:
// one section per experiment with its resolved params, every table (and
// ablation child section) as a Markdown table, notes as bullet lines.
// The output is a pure function of the record's simulated results — the
// record's go_version is deliberately omitted, and the virtual-clock
// figures are host-independent — so CI regenerates the file and diffs it
// against the committed copy byte-for-byte.
func report(path string, w io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := parseFigureRecord(b)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rec.Experiments) == 0 {
		return fmt.Errorf("%s: no records", path)
	}
	fmt.Fprintf(w, "# Adelie experiment results\n\n")
	fmt.Fprintf(w, "Generated by `benchtool report` from a recorded `-json` figure run")
	if rec.Quick {
		fmt.Fprintf(w, " (`-quick` op counts)")
	}
	fmt.Fprintf(w, ".\nDo not edit by hand — regenerate with:\n\n")
	fmt.Fprintf(w, "```\ngo run ./cmd/benchtool -quick -json figs.json run all\ngo run ./cmd/benchtool report figs.json > EXPERIMENTS.md\n```\n")
	var emit func(t *workload.Table, depth int)
	emit = func(t *workload.Table, depth int) {
		fmt.Fprintf(w, "\n%s %s\n\n", strings.Repeat("#", depth), t.Title)
		if len(t.Columns) > 0 && len(t.Rows) > 0 {
			for _, c := range t.Columns {
				head := c.Head
				if head == "" {
					head = c.Name
				}
				fmt.Fprintf(w, "| %s ", strings.TrimSpace(head))
			}
			fmt.Fprintf(w, "|\n")
			for range t.Columns {
				fmt.Fprintf(w, "|---")
			}
			fmt.Fprintf(w, "|\n")
			for _, row := range t.Rows {
				for _, cell := range row {
					fmt.Fprintf(w, "| %s ", reportCell(cell))
				}
				fmt.Fprintf(w, "|\n")
			}
		}
		for _, n := range t.Notes {
			fmt.Fprintf(w, "- %s\n", n)
		}
		for _, c := range t.Children {
			emit(c, depth+1)
		}
	}
	for _, e := range rec.Experiments {
		params := make([]string, 0, len(e.Params))
		for _, k := range sortedParamKeys(e.Params) {
			params = append(params, fmt.Sprintf("%s=%d", k, e.Params[k]))
		}
		fmt.Fprintf(w, "\n## %s", e.Name)
		if len(params) > 0 {
			fmt.Fprintf(w, " (%s)", strings.Join(params, " "))
		}
		fmt.Fprintf(w, "\n")
		if e.Table != nil {
			emit(e.Table, 3)
		}
	}
	return nil
}

// reportCell renders one table cell for Markdown. JSON decoding turns
// every number into float64; integral values print as integers and the
// rest round to six significant digits — deterministic (the inputs are
// the virtual-clock figures, identical on every host) and readable,
// since the raw shortest-round-trip float form runs to 17 digits.
func reportCell(cell any) string {
	f, ok := cell.(float64)
	if !ok {
		return fmt.Sprintf("%v", cell)
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', 0, 64)
	}
	return strconv.FormatFloat(f, 'g', 6, 64)
}

func sortedParamKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// parseFigureRecord decodes a -json figure capture. The canonical shape
// is the figureRecord object benchtool writes; a bare JSON array of
// experiment records is accepted too, so hand-assembled captures (and
// the degenerate empty array) hit the "no records" gate instead of an
// unmarshal type error.
func parseFigureRecord(b []byte) (figureRecord, error) {
	var rec figureRecord
	objErr := json.Unmarshal(b, &rec)
	if objErr == nil {
		return rec, nil
	}
	if err := json.Unmarshal(b, &rec.Experiments); err != nil {
		return figureRecord{}, objErr
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// selfbench + the -check regression gate (the BENCH_*.json trajectory).

// ddBenchKey is the hot-path figure the performance trajectory tracks;
// nicBenchKey is the NIC RX→ISR→TX round-trip path added with the
// device bus; forkBenchKey and sweepBenchKey are the snapshot/fork
// figures (machine fork latency, amortized wall time per point of a
// fork-parallel 16-point Fig-5b sweep). All are gated by -check, each
// only against baselines that recorded it.
const (
	ddBenchKey    = "fig5b_dd64_picret"
	nicBenchKey   = "nic_rx_irq_roundtrip"
	forkBenchKey  = "fork_us"
	sweepBenchKey = "sweep16_amortized_ms"
	serverWallKey = "server_mq4_roundtrip"
	serverRPSKey  = "server_rps"
	serverP99Key  = "server_p99_us"
	// serviceRPSKey and serviceP99Key are the fleet-service figures: host
	// throughput and tail latency of the adelie-simd HTTP path under ~1k
	// concurrent clients against a 4-machine fork pool.
	serviceRPSKey = "service_rps"
	serviceP99Key = "service_p99_us"
	// ddTracedKey is the dd path re-run with the event tracer attached,
	// in host microseconds per simulated op — the observability overhead
	// gate (target: within 5% of the untraced dd figure).
	ddTracedKey = "dd_traced_us"
	// ddChainPctKey / ddIChainPctKey are the dd hot-path chain rates:
	// the percentage of retired basic blocks entered via any trace link,
	// and via the monomorphic indirect target cache specifically. Both
	// gate higher-is-better — a collapse (with unchanged simulated MBps)
	// means the hot path fell back to dispatch, the regression the
	// wall-clock gate alone can't attribute.
	ddChainPctKey  = "fig5b_dd64_picret_chain_pct"
	ddIChainPctKey = "fig5b_dd64_picret_ichain_pct"
)

// gatedPath is one metric the -check gate compares: a key, which record
// map it lives in, its unit for reporting, and its direction — most
// paths are wall-clock or latency figures where lower is better, but
// the server's simulated throughput gates the other way.
type gatedPath struct {
	key     string
	metrics bool // key lives in Metrics, not WallNsOp
	unit    string
	higher  bool // higher is better (throughput); default lower-is-better
}

var gatedPaths = []gatedPath{
	{ddBenchKey, false, "ns/op", false},
	{nicBenchKey, false, "ns/op", false},
	{forkBenchKey, true, "us", false},
	{sweepBenchKey, true, "ms", false},
	{serverWallKey, false, "ns/op", false},
	{serverRPSKey, true, "rps", true},
	{serverP99Key, true, "us", false},
	{serviceRPSKey, true, "rps", true},
	{serviceP99Key, true, "us", false},
	{ddTracedKey, true, "us", false},
	{ddChainPctKey, true, "%", true},
	{ddIChainPctKey, true, "%", true},
}

// regressionMargin is how much slower than the best recorded baseline
// the gated run may be before the check fails, plus a label naming where
// that margin came from — regression messages cite the label, so a CI
// failure says which policy actually applied rather than leaving the
// reader to guess whether BENCHGATE_MARGIN_PCT was set. The default is
// the repo's 20% local policy; BENCHGATE_MARGIN_PCT overrides it (e.g.
// 150 on a CI fleet whose hardware differs from the machines that
// recorded the baselines). A malformed or non-positive override is
// ignored, and the label says so.
func regressionMargin() (float64, string) {
	if s := os.Getenv("BENCHGATE_MARGIN_PCT"); s != "" {
		var pct float64
		if _, err := fmt.Sscanf(s, "%f", &pct); err == nil && pct > 0 {
			return 1 + pct/100, "BENCHGATE_MARGIN_PCT=" + s
		}
		return 1.20, fmt.Sprintf("local default; ignored invalid BENCHGATE_MARGIN_PCT=%q", s)
	}
	return 1.20, "local default"
}

func readRecord(path string) (selfbenchRecord, error) {
	var rec selfbenchRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	return rec, json.Unmarshal(b, &rec)
}

// checkRegression fails if any gated path in the given selfbench record
// regressed more than regressionMargin versus the fastest committed
// BENCH_*.json baseline that recorded that path. Baselines predating a
// metric (the NIC round-trip, the fork figures) simply don't constrain
// it. Every gated metric is compared before the verdict, and the error
// names each offender with how far past the margin it landed — a gate
// that only says "regressed" forces a re-run to learn what and by how
// much.
func checkRegression(path string) error {
	cur, err := readRecord(path)
	if err != nil {
		return err
	}
	lookup := func(rec selfbenchRecord, g gatedPath) (float64, bool) {
		if g.metrics {
			v, ok := rec.Metrics[g.key]
			return v, ok
		}
		v, ok := rec.WallNsOp[g.key]
		return v, ok
	}
	// The record under check comes from the current selfbench, which
	// always emits every gated path — a missing key means the gate
	// would silently stop gating, so fail loudly instead. (Baselines
	// may legitimately predate a metric; see below.)
	for _, g := range gatedPaths {
		if _, ok := lookup(cur, g); !ok {
			return fmt.Errorf("%s: no %q measurement", path, g.key)
		}
	}
	baselineNames, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return err
	}
	baselines := make(map[string]selfbenchRecord, len(baselineNames))
	for _, b := range baselineNames {
		rec, err := readRecord(b)
		if err != nil {
			return fmt.Errorf("%s: %w", b, err)
		}
		baselines[b] = rec
	}
	margin, marginSrc := regressionMargin()
	var regressed []string
	for _, g := range gatedPaths {
		curV, _ := lookup(cur, g)
		bestV, bestName := 0.0, ""
		better := func(v, best float64) bool { return v < best }
		if g.higher {
			better = func(v, best float64) bool { return v > best }
		}
		for _, b := range baselineNames {
			if v, ok := lookup(baselines[b], g); ok && (bestName == "" || better(v, bestV)) {
				bestV, bestName = v, b
			}
		}
		if bestName == "" {
			fmt.Printf("check: no BENCH_*.json baselines with %q; nothing to compare\n", g.key)
			continue
		}
		bad := curV > bestV*margin
		lostPct := (curV/bestV - 1) * 100
		if g.higher {
			bad = curV < bestV/margin
			lostPct = (bestV/curV - 1) * 100
		}
		if bad {
			regressed = append(regressed, fmt.Sprintf(
				"%s regressed %.1f%%: %.1f %s vs best baseline %.1f %s (%s, margin %.0f%% from %s)",
				g.key, lostPct, curV, g.unit, bestV, g.unit, bestName, (margin-1)*100, marginSrc))
			continue
		}
		fmt.Printf("check: %s %.1f %s within %.0f%% (%s) of best baseline %.1f %s (%s)\n",
			g.key, curV, g.unit, (margin-1)*100, marginSrc, bestV, g.unit, bestName)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d gated metric(s) regressed:\n  %s",
			len(regressed), strings.Join(regressed, "\n  "))
	}
	return nil
}

// selfbenchRecord is the JSON shape of one recorded harness benchmark.
type selfbenchRecord struct {
	GoVersion string             `json:"go_version"`
	Quick     bool               `json:"quick"`
	Reps      int                `json:"reps,omitempty"` // repetitions per path (min recorded)
	WallNsOp  map[string]float64 `json:"wall_ns_per_op"` // host ns per simulated op
	Metrics   map[string]float64 `json:"metrics"`        // simulated headline metrics
}

// selfbench times the harness on the hot interpreter paths. Wall-clock
// per-op figures are what the decoded-instruction cache, lock-light
// translation path and superblock trace linking are meant to improve;
// the simulated metrics ride along as a sanity check that optimization
// did not change results. With reps > 1 each path runs that many times
// and the minimum wall time is recorded — the standard noise-robust
// estimator on shared hosts (the simulated metrics are deterministic,
// so repetition cannot change them).
func selfbench(jsonPath string, scale, reps int) error {
	fmt.Printf("\n== %s ==\n", "selfbench — harness wall-clock per simulated operation")
	if reps < 1 {
		reps = 1
	}
	rec := selfbenchRecord{
		GoVersion: runtime.Version(),
		Quick:     scale > 1,
		Reps:      reps,
		WallNsOp:  map[string]float64{},
		Metrics:   map[string]float64{},
	}
	// timeMin records the minimum wall ns/op over reps runs of f.
	timeMin := func(key string, ops int, f func() error) error {
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := f(); err != nil {
				return err
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
			if r == 0 || ns < rec.WallNsOp[key] {
				rec.WallNsOp[key] = ns
			}
		}
		return nil
	}

	ddOps := 1600 / scale
	err := timeMin("fig5b_dd64_picret", ddOps, func() error {
		dd, err := workload.DD(workload.CfgPICRet, 64, ddOps)
		if err != nil {
			return err
		}
		rec.Metrics["fig5b_dd64_picret_mbps"] = dd.MBps
		// Chain rates: share of retired basic blocks entered by following
		// a trace link instead of returning to the dispatch loop, and the
		// indirect-cache share of that specifically. Both are gated
		// higher-is-better by -check (see ddChainPctKey).
		if dd.Blocks > 0 {
			rec.Metrics[ddChainPctKey] = 100 * float64(dd.ChainedBlocks) / float64(dd.Blocks)
			rec.Metrics[ddIChainPctKey] = 100 * float64(dd.IndirectChained) / float64(dd.Blocks)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The same dd path with the event tracer recording — the
	// observability overhead figure. Each rep pairs one untraced and
	// one traced run back to back, so host-load drift between the two
	// legs cancels out of the reported ratio (both take min-over-reps,
	// and the paired untraced runs can only improve the wall figure
	// recorded above). The tracer must be free when disabled (the
	// untraced runs execute the exact binary that contains the tracing
	// hooks) and near-free when enabled; the trace's simulated figure
	// must match the untraced run bit-for-bit, checked on every rep.
	var ratios []float64
	ddPairs := 5 * reps
	for r := 0; r < ddPairs; r++ {
		// A forced collection before each leg keeps the GC debt carried
		// into the timed window identical for both legs; without it the
		// traced leg also pays for whatever garbage the previous leg
		// left behind. The legs alternate order across reps so frequency
		// scaling or cache warmth from leg position cancels too.
		runUntraced := func() (float64, error) {
			runtime.GC()
			start := time.Now()
			if _, err := workload.DD(workload.CfgPICRet, 64, ddOps); err != nil {
				return 0, err
			}
			unt := float64(time.Since(start).Nanoseconds()) / float64(ddOps)
			if unt < rec.WallNsOp[ddBenchKey] {
				rec.WallNsOp[ddBenchKey] = unt
			}
			return unt, nil
		}
		runTraced := func() (float64, error) {
			runtime.GC()
			_, endObs := workload.BeginObs(true, false)
			start := time.Now()
			dd, err := workload.DD(workload.CfgPICRet, 64, ddOps)
			ns := float64(time.Since(start).Nanoseconds()) / float64(ddOps)
			endObs()
			if err != nil {
				return 0, err
			}
			if dd.MBps != rec.Metrics["fig5b_dd64_picret_mbps"] {
				return 0, fmt.Errorf("tracing changed the dd figure: %.3f MB/s traced vs %.3f untraced",
					dd.MBps, rec.Metrics["fig5b_dd64_picret_mbps"])
			}
			return ns, nil
		}
		var unt, tra float64
		var err error
		if r%2 == 0 {
			if unt, err = runUntraced(); err == nil {
				tra, err = runTraced()
			}
		} else {
			if tra, err = runTraced(); err == nil {
				unt, err = runUntraced()
			}
		}
		if err != nil {
			return err
		}
		ratios = append(ratios, tra/unt)
	}
	// The overhead figure is the median pair ratio: each rep's two legs
	// ran back to back, so a host-load burst lands on both or neither,
	// and the median discards the reps where it split them — unlike
	// min-over-independent-legs, which lets a burst on one leg
	// masquerade as tracing cost (or, taking min ratio, hide it). The
	// recorded traced figure is that ratio applied to the best untraced
	// wall time, so dd_traced_us vs the fig5b wall figure reproduces the
	// drift-cancelled overhead estimate rather than comparing one noisy
	// traced sample against a min taken over many untraced ones.
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	rec.Metrics[ddTracedKey] = med * rec.WallNsOp[ddBenchKey] / 1e3
	fmt.Printf("dd traced overhead: %.1f%% over untraced (median of %d paired reps)\n",
		(med-1)*100, len(ratios))

	ioctlOps := 12000 / scale
	err = timeMin("fig9_ioctl_rerandstack", ioctlOps, func() error {
		io, err := workload.Ioctl("wrappers+stack", workload.CfgRerandStack, ioctlOps)
		if err != nil {
			return err
		}
		rec.Metrics["fig9_ioctl_rerandstack_mops"] = io.MopsPerSec
		return nil
	})
	if err != nil {
		return err
	}

	nvmeOps := 2400 / scale
	err = timeMin("fig6_nvme_1ms", nvmeOps, func() error {
		nv, err := workload.NVMeDirectRead(workload.Period1ms, false, nvmeOps)
		if err != nil {
			return err
		}
		rec.Metrics["fig6_nvme_1ms_mbps"] = nv.MBps
		return nil
	})
	if err != nil {
		return err
	}

	oltpTxs := 240 / scale
	err = timeMin("fig7_oltp_5ms_c100", oltpTxs, func() error {
		ol, err := workload.OLTP(workload.Period5ms, false, 100, oltpTxs)
		if err != nil {
			return err
		}
		rec.Metrics["fig7_oltp_5ms_c100_tps"] = ol.TPS
		return nil
	})
	if err != nil {
		return err
	}

	// NIC RX round-trip: loadgen frame → RX ring → IRQ → NAPI ISR drain
	// → server response frame, per-frame interrupts (the latency-bound
	// end of the coalescing sweep).
	nicOps := 2400 / scale
	err = timeMin(nicBenchKey, nicOps, func() error {
		nic, err := workload.NICCoalesce(1, 100, nicOps)
		if err != nil {
			return err
		}
		rec.Metrics["nic_rx_irq_latency_us"] = nic.AvgIRQLatUs
		rec.Metrics["nic_rx_irq_dropped"] = float64(nic.Dropped)
		return nil
	})
	if err != nil {
		return err
	}

	// Server round-trip on the per-vCPU interrupt path: RSS frames across
	// 4 NIC queues (vector q pinned to vCPU q), an interrupt-completed
	// NVMe read per request, response TX — under 1 ms re-randomization.
	// Wall ns/op gates the host cost of multi-vCPU delivery; the
	// simulated throughput and p99 gate the figure itself (deterministic,
	// so any drift is a semantic change, not noise).
	serverOps := 1920 / scale
	err = timeMin(serverWallKey, serverOps, func() error {
		sr, err := workload.Server(4, 4, serverOps, 1000)
		if err != nil {
			return err
		}
		rec.Metrics[serverRPSKey] = sr.RPS
		rec.Metrics[serverP99Key] = sr.P99Us
		rec.Metrics["server_irq_vcpus"] = float64(sr.IRQVCPUs)
		return nil
	})
	if err != nil {
		return err
	}

	sc, err := workload.Scalability([]int{20}, 20)
	if err != nil {
		return err
	}
	rec.Metrics["scalability_20mods_corepct"] = sc[0].CPUPct

	// Machine fork latency: microseconds to fork+release one machine from
	// a frozen snapshot template (the Fig-5 dd shape: PIC+retpoline,
	// ext4 loaded). This is the number that makes the parallel sweep
	// runner's boots ~free; min over reps like the wall paths.
	tmpl, err := workload.NewBenchMachine(workload.CfgPICRet, 5, "ext4")
	if err != nil {
		return err
	}
	if err := tmpl.Snapshot(); err != nil {
		return err
	}
	const nForks = 64
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < nForks; i++ {
			f, err := tmpl.Fork()
			if err != nil {
				return err
			}
			f.Release()
		}
		us := float64(time.Since(start).Nanoseconds()) / 1e3 / nForks
		if r == 0 || us < rec.Metrics[forkBenchKey] {
			rec.Metrics[forkBenchKey] = us
		}
	}
	tmpl.Release()

	// 16-point Fig-5b ops sweep (the paper's "-p ops=100..1600" shape,
	// ops scaled under -quick): amortized wall ms per point fork-parallel,
	// with the serial/cold-boot sweep alongside so the recorded speedup
	// documents what snapshot/fork parallelism buys end-to-end. One run
	// each — the 16-point amortization already averages the noise a
	// reps-min would fight, and the serial leg is too slow to repeat.
	sweepExp, ok := workload.Experiments.Lookup("fig5b")
	if !ok {
		return fmt.Errorf("fig5b not registered")
	}
	sweepVals := make([]int64, 16)
	for i := range sweepVals {
		sweepVals[i] = int64((i + 1) * 100 / scale)
	}
	sweepBase := sweepExp.Params(scale > 1)
	start := time.Now()
	serialPts, err := workload.RunSweep(sweepExp, sweepBase, "ops", sweepVals, false, 0)
	if err != nil {
		return err
	}
	serialMs := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(len(sweepVals))
	start = time.Now()
	parPts, err := workload.RunSweep(sweepExp, sweepBase, "ops", sweepVals, true, 0)
	if err != nil {
		return err
	}
	parMs := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(len(sweepVals))
	for i := range serialPts {
		var a, b strings.Builder
		serialPts[i].Table.Fprint(&a)
		parPts[i].Table.Fprint(&b)
		if a.String() != b.String() {
			return fmt.Errorf("sweep point ops=%d: fork-parallel table diverges from serial", sweepVals[i])
		}
	}
	rec.Metrics[sweepBenchKey] = parMs
	rec.Metrics["sweep16_serial_ms"] = serialMs
	rec.Metrics["sweep16_speedup"] = serialMs / parMs

	// Fleet-service throughput: an in-process adelie-simd (pool of 4
	// fork-served machines behind the lease manager) hammered by the load
	// generator with ~1k concurrent fig9 requests. Gates the end-to-end
	// HTTP→lease→fork→experiment→Table path; every request must be served
	// from the fork pool (a cold boot here means the pool regressed to
	// per-request machine boots). One run — thousands of requests already
	// amortize the noise a reps-min would fight.
	svc := service.New(service.Config{PoolSize: 4, QueueCap: 4096})
	ts := httptest.NewServer(svc.Handler())
	lr, err := service.RunLoad(service.LoadOpts{
		BaseURL:    ts.URL,
		Experiment: "fig9", Quick: true, Params: map[string]string{"ops": "50"},
		Requests: 2048 / scale, Concurrency: 1024 / scale,
	})
	ts.Close()
	if err != nil {
		svc.Close()
		return err
	}
	svcStats := svc.StatsNow()
	svc.Close()
	if lr.Failed > 0 {
		return fmt.Errorf("service load: %d/%d requests failed (first: %s)", lr.Failed, lr.Requests, lr.FirstError)
	}
	if svcStats.ColdBoots != 0 {
		return fmt.Errorf("service load: %d cold boots; every request must be fork-served", svcStats.ColdBoots)
	}
	rec.Metrics[serviceRPSKey] = lr.RPS
	rec.Metrics[serviceP99Key] = lr.P99Us

	fmt.Printf("%-26s %16s\n", "path", "host ns/op")
	for _, k := range sortedKeys(rec.WallNsOp) {
		fmt.Printf("%-26s %16.0f\n", k, rec.WallNsOp[k])
	}
	fmt.Printf("%-34s %12s\n", "simulated metric", "value")
	for _, k := range sortedKeys(rec.Metrics) {
		fmt.Printf("%-34s %12.3f\n", k, rec.Metrics[k])
	}

	if jsonPath != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(jsonPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
