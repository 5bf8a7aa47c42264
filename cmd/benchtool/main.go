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
//	benchtool -cpuprofile cpu.pprof -memprofile mem.pprof run server
//	                                   # host pprof profiles of the run
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
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

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
	jsonPath := flag.String("json", "", "write figure results as structured Table JSON")
	csvPath := flag.String("csv", "", "write figure results as long-form CSV (one line per table cell)")
	parallel := flag.Bool("parallel", false, "run -p range sweeps fork-parallel (snapshot/fork boot pool + worker fan-out)")
	tracePath := flag.String("trace", "", "record the run's deterministic event trace as Chrome trace_event JSON at FILE (open in Perfetto)")
	profPath := flag.String("prof", "", "sample the guest on the virtual clock; write collapsed stacks to FILE and a flat table to stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) of the experiment runs to FILE")
	memProfile := flag.String("memprofile", "", "write a host heap profile (pprof) to FILE after the experiment runs")
	var overrides paramFlags
	flag.Var(&overrides, "p", "override an experiment parameter (key=val or key=lo..hi[:step], repeatable)")
	flag.Parse()
	args := flag.Args()
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
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtool: %v\n", err)
		os.Exit(1)
	}
	err = runExperiments(args, overrides, *quick, *jsonPath, *csvPath, *parallel, *tracePath, *profPath)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtool: %v\n", err)
		var bad badOverrides
		if errors.As(err, &bad) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: benchtool [-quick] [-parallel] [-p key=val|key=lo..hi[:step]]... [-json FILE] [-csv FILE] [-trace FILE] [-prof FILE] [-cpuprofile FILE] [-memprofile FILE] <command>
commands:
  list                list registered experiments and their parameters
  run <name...|all>   run experiments by registry name (also: bare names)
  validate FILE       parse-check a -json figure record
  report FILE         render a -json figure record as Markdown (EXPERIMENTS.md)
experiments:`)
	fmt.Fprintf(os.Stderr, "  %s all\n", strings.Join(workload.Experiments.Names(), " "))
}

// startProfiles starts the host CPU profile when cpuPath is set and
// returns the function that stops it and, when memPath is set, writes
// the heap profile after a GC. Both files are pprof format (go tool
// pprof); they profile the simulator itself, not the guest (-prof).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
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

// figureRecord is the -json shape for figure runs.
type figureRecord struct {
	GoVersion   string             `json:"go_version"`
	Quick       bool               `json:"quick"`
	Experiments []experimentRecord `json:"experiments"`
}

func runExperiments(names []string, overrides paramFlags, quick bool, jsonPath, csvPath string, parallel bool, tracePath, profPath string) error {
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
	for _, name := range names {
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
	if jsonPath != "" && len(rec.Experiments) > 0 {
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
// trace_event JSON (byte-deterministic — TestServerTraceByteIdentical
// traces fig9 twice and compares the bytes) and the profile as a
// collapsed-stack file plus a flat table on stdout.
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
	return fmt.Errorf("%s\nregistered: %s", msg, strings.Join(workload.Experiments.Names(), " "))
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
