package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"adelie/internal/attack"
	"adelie/internal/drivers"
	"adelie/internal/elfmod"
	"adelie/internal/isa"
	"adelie/internal/kcc"
	"adelie/internal/kernel"
	"adelie/internal/rerand"
	"adelie/internal/sim"
)

// ---------------------------------------------------------------------------
// Fig. 10 — ROP gadget distribution.

// GadgetRow is one bar group of Fig. 10: gadget counts per class for one
// code population.
type GadgetRow struct {
	Population string // "kernel", "modules", "pic-modules", "pic-immovable"
	Dist       attack.Distribution
}

// Default seeds of the §5.4/§6 experiments (the "seed" param defaults in
// their registry descriptors): the scalability testbed kernel, and the
// JIT-ROP victim kernels. The brute-force campaign RNG derives from the
// security seed so one override moves the whole analysis.
const (
	seedScalability int64 = 54
	seedSecurity    int64 = 13
	// seedSecurity + bruteForceSeedSkew = 66, the historical RNG seed.
	bruteForceSeedSkew int64 = 53
)

// GadgetDistribution scans (a) a kernel-sized code body, (b) the module
// corpus built non-PIC, (c) the same corpus built PIC+retpoline split into
// movable and immovable parts, mirroring Fig. 10's populations.
func GadgetDistribution(corpusSize int) ([]GadgetRow, error) {
	mods := attack.GenerateCorpus(23, corpusSize, attack.DefaultCorpus)

	scanSections := func(obj *elfmod.Object, kind elfmod.SectionKind, all bool) attack.Distribution {
		d := attack.Distribution{}
		for _, sec := range obj.Sections {
			if !sec.Kind.Executable() {
				continue
			}
			if !all && sec.Kind != kind {
				continue
			}
			for c, n := range attack.Distribute(attack.Scan(sec.Data, 0x10000)) {
				d[c] += n
			}
		}
		return d
	}
	merge := func(dst, src attack.Distribution) {
		for c, n := range src {
			dst[c] += n
		}
	}

	// "Kernel": the core kernel is ~15% of the gadget mass (paper §6);
	// model it as a corpus slice of that proportion built non-PIC.
	kernelN := corpusSize / 6
	if kernelN == 0 {
		kernelN = 1
	}
	kernelDist := attack.Distribution{}
	for _, m := range attack.GenerateCorpus(29, kernelN, attack.DefaultCorpus) {
		obj, err := kcc.Compile(m, kcc.Options{Model: kcc.ModelAbsolute})
		if err != nil {
			return nil, err
		}
		merge(kernelDist, scanSections(obj, 0, true))
	}

	plainDist := attack.Distribution{}
	picMovable := attack.Distribution{}
	picImmovable := attack.Distribution{}
	for _, m := range mods {
		plain, err := kcc.Compile(m, kcc.Options{Model: kcc.ModelAbsolute})
		if err != nil {
			return nil, err
		}
		merge(plainDist, scanSections(plain, 0, true))

		pic, err := drivers.Build(cloneModule(m), drivers.BuildOpts{
			PIC: true, Retpoline: true, Rerand: true, RetEncrypt: true,
		})
		if err != nil {
			return nil, err
		}
		merge(picMovable, scanSections(pic, elfmod.SecText, false))
		merge(picImmovable, scanSections(pic, elfmod.SecFixedText, false))
	}

	return []GadgetRow{
		{Population: "kernel", Dist: kernelDist},
		{Population: "modules", Dist: plainDist},
		{Population: "pic-movable", Dist: picMovable},
		{Population: "pic-immovable", Dist: picImmovable},
	}, nil
}

// cloneModule deep-copies a module so plugin transforms don't contaminate
// the shared corpus instance.
func cloneModule(m *kcc.Module) *kcc.Module {
	out := &kcc.Module{Name: m.Name}
	for _, f := range m.Funcs {
		nf := *f
		nf.Body = append([]kcc.Ins(nil), f.Body...)
		out.Funcs = append(out.Funcs, &nf)
	}
	for _, g := range m.Globals {
		ng := *g
		ng.Init = append([]byte(nil), g.Init...)
		ng.Relocs = append([]kcc.DataReloc(nil), g.Relocs...)
		out.Globals = append(out.Globals, &ng)
	}
	return out
}

var expFig10 = &Experiment{
	Name:   "fig10",
	Figure: "Fig. 10",
	Doc:    "ROP gadget distribution per class across code populations",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "synthetic corpus size scanned", Default: 120, Quick: 60, Min: 1},
	},
	Run: func(p Params) (*Table, error) {
		rows, err := GadgetDistribution(p.Int("ops"))
		if err != nil {
			return nil, err
		}
		var classes []attack.GadgetClass
		seen := map[attack.GadgetClass]bool{}
		for _, r := range rows {
			for _, c := range r.Dist.Classes() {
				if !seen[c] {
					seen[c] = true
					classes = append(classes, c)
				}
			}
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		t := &Table{
			Title:   "Fig. 10 — ROP gadget distribution (counts per class)",
			Columns: []Column{Col("population", "%-15s", "%-15s")},
		}
		for _, c := range classes {
			t.Columns = append(t.Columns, Col(string(c), "%9d", "%9s"))
		}
		t.Columns = append(t.Columns, Col("total", "%9d", "%9s"))
		for _, r := range rows {
			cells := []any{r.Population}
			for _, c := range classes {
				cells = append(cells, r.Dist[c])
			}
			cells = append(cells, r.Dist.Total())
			t.AddRow(cells...)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		out := map[string]float64{}
		for _, r := range t.Rows {
			out[r[0].(string)+"-gadgets"] = float64(r[len(r)-1].(int))
		}
		return out
	},
}

// ---------------------------------------------------------------------------
// Table 2 — ROP chain quality across the module population.

// ChainTable mirrors Table 2's rows.
type ChainTable struct {
	CleanChain      int // "With ROP Chain, no side-effect"
	SideEffectChain int // "With ROP Chain, with side-effect"
	NoChain         int // "Without ROP Chain"
	Modules         int
	PIC             bool
}

// ChainCensus classifies every module in the corpus under one code model.
func ChainCensus(corpusSize int, pic bool) (ChainTable, error) {
	mods := attack.GenerateCorpus(23, corpusSize, attack.DefaultCorpus)
	t := ChainTable{Modules: corpusSize, PIC: pic}
	model := kcc.ModelAbsolute
	if pic {
		model = kcc.ModelPIC
	}
	for _, m := range mods {
		obj, err := kcc.Compile(m, kcc.Options{Model: model, Retpoline: pic})
		if err != nil {
			return t, err
		}
		var code []byte
		for _, sec := range obj.Sections {
			if sec.Kind.Executable() {
				code = append(code, sec.Data...)
			}
		}
		switch attack.ClassifyModule(code, 0x10000) {
		case attack.ChainClean:
			t.CleanChain++
		case attack.ChainWithSideEffect:
			t.SideEffectChain++
		default:
			t.NoChain++
		}
	}
	return t, nil
}

var expTable2 = &Experiment{
	Name:   "table2",
	Figure: "Table 2",
	Doc:    "ROP chain quality (NX-disable chains) across the module corpus",
	ParamSpecs: []ParamSpec{
		{Name: "ops", Doc: "corpus modules classified per code model", Default: 400, Quick: 100, Min: 1},
	},
	Run: func(p Params) (*Table, error) {
		n := p.Int("ops")
		plain, err := ChainCensus(n, false)
		if err != nil {
			return nil, err
		}
		pic, err := ChainCensus(n, true)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "Table 2 — ROP gadget categories (NX-disable chains)",
			Columns: []Column{
				{Name: "category", Head: "", Fmt: "%-38s", HeadFmt: "%-38s"},
				Col("Non-PIC", "%10d", "%10s"),
				Col("PIC", "%10d", "%10s"),
			},
		}
		t.AddRow("With ROP Chain, no side-effect", plain.CleanChain, pic.CleanChain)
		t.AddRow("With ROP Chain, with side-effect", plain.SideEffectChain, pic.SideEffectChain)
		t.AddRow("Without ROP Chain", plain.NoChain, pic.NoChain)
		t.AddRow("Number of Modules", plain.Modules, pic.Modules)
		t.Notef("chain rate: non-PIC %.1f%%, PIC %.1f%% (paper: 80%%)",
			float64(plain.CleanChain+plain.SideEffectChain)/float64(n)*100,
			float64(pic.CleanChain+pic.SideEffectChain)/float64(n)*100)
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		chains := float64(t.Rows[0][2].(int) + t.Rows[1][2].(int))
		return map[string]float64{"pic-chain-rate-pct": chains / float64(t.Rows[3][2].(int)) * 100}
	},
}

// ---------------------------------------------------------------------------
// §5.4 — scalability of the re-randomizer thread.

// ScalabilityRow reports the randomizer thread's CPU share when
// re-randomizing n modules at the given period.
type ScalabilityRow struct {
	Modules  int
	PeriodMs float64
	CPUPct   float64 // share of ONE core, like the paper's 0.4% figure
}

// scalability loads n re-randomizable synthetic modules, measures the
// cycle cost of a randomizer pass, and derives the thread's CPU share at
// the period.
func scalability(seed int64, moduleCounts []int, periodMs float64) ([]ScalabilityRow, error) {
	var rows []ScalabilityRow
	for _, n := range moduleCounts {
		k, err := kernel.New(kernel.Config{NumCPUs: 20, Seed: seed, KASLR: kernel.KASLRFull64})
		if err != nil {
			return nil, err
		}
		r := rerand.New(k)
		for i, m := range attack.GenerateCorpus(31, n, attack.DefaultCorpus) {
			obj, err := drivers.Build(m, drivers.BuildOpts{
				PIC: true, Retpoline: true, Rerand: true, StackRerand: true, RetEncrypt: true,
			})
			if err != nil {
				return nil, fmt.Errorf("module %d: %w", i, err)
			}
			mod, err := k.Load(obj)
			if err != nil {
				return nil, err
			}
			if err := r.Add(mod); err != nil {
				return nil, err
			}
		}
		// Average the pass cost over several steps.
		var cycles uint64
		const steps = 5
		for s := 0; s < steps; s++ {
			rep, err := r.Step()
			if err != nil {
				return nil, err
			}
			cycles += rep.Cycles
			k.SMR.Flush()
		}
		perPass := float64(cycles) / steps
		passesPerSec := 1000 / periodMs
		rows = append(rows, ScalabilityRow{
			Modules: n, PeriodMs: periodMs,
			CPUPct: perPass * passesPerSec / sim.CPUHz * 100,
		})
	}
	return rows, nil
}

// ScalabilityModuleCounts is the §5.4 module-count sweep.
var ScalabilityModuleCounts = []int{1, 5, 20, 60, 120}

var expScalability = &Experiment{
	Name:   "scalability",
	Figure: "§5.4",
	Doc:    "re-randomizer thread CPU share vs module count",
	ParamSpecs: []ParamSpec{
		{Name: "mods", Doc: "cap on the module-count sweep", Default: 120, Quick: 20},
		{Name: "seed", Doc: "kernel boot seed", Default: seedScalability},
		{Name: "period", Doc: "re-randomization period (ms)", Default: 20},
	},
	Run: func(p Params) (*Table, error) {
		var counts []int
		for _, n := range ScalabilityModuleCounts {
			if n <= p.Int("mods") {
				counts = append(counts, n)
			}
		}
		rows, err := scalability(p.Int64("seed"), counts, float64(p.Int("period")))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: fmt.Sprintf("§5.4 — re-randomizer thread CPU share (%d ms period)", p.Int("period")),
			Columns: []Column{
				Col("modules", "%-10d", "%-10s"),
				{Name: "cpu-pct", Head: "CPU% (1 core)", Fmt: "%12.4f", HeadFmt: "%12s"},
			},
		}
		for _, r := range rows {
			t.AddRow(r.Modules, r.CPUPct)
		}
		if len(rows) > 1 {
			per := rows[len(rows)-1].CPUPct / float64(rows[len(rows)-1].Modules)
			t.Notef("extrapolated 950 modules: %.2f%% of one core (paper: comfortably feasible)", per*950)
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		last := t.Rows[len(t.Rows)-1]
		per := last[1].(float64) / float64(last[0].(int))
		return map[string]float64{"core-pct": last[1].(float64), "est-950-mods-pct": per * 950}
	},
}

// ---------------------------------------------------------------------------
// §6 — security analysis numbers.

// SecurityReport aggregates the §6 quantitative claims.
type SecurityReport struct {
	VanillaGuessProb  float64 // 2^-19
	Full64GuessProb   float64 // 2^-44
	VanillaBruteForce attack.BruteForceResult
	Full64BruteForce  attack.BruteForceResult
	JITROPVanilla     attack.JITROPOutcome // no re-randomization: succeeds
	JITROPDefended    attack.JITROPOutcome // 5 ms period: fails
	AttackMicros      float64
}

// securityAnalysis reproduces the §6 numbers: guess probabilities, an
// empirical brute-force campaign against both KASLR windows, and the
// JIT-ROP race against the re-randomization interval.
func securityAnalysis(seed int64) (SecurityReport, error) {
	var rep SecurityReport
	rep.VanillaGuessProb = attack.GuessProbability(attack.VanillaWindowBits)
	rep.Full64GuessProb = attack.GuessProbability(attack.Full64WindowBits)

	rng := rand.New(rand.NewSource(seed + bruteForceSeedSkew))
	// Empirical brute force: a module of 8 pages inside each window.
	const modBytes = 8 * 4096
	rep.VanillaBruteForce = attack.SimulateBruteForce(rng, 0, 1<<attack.VanillaWindowBits, 1<<28, modBytes, 4<<20)
	rep.Full64BruteForce = attack.SimulateBruteForce(rng, 0, 1<<attack.Full64WindowBits, 1<<40, modBytes, 4<<20)

	// JIT-ROP against a vulnerable driver, vanilla vs defended.
	mkKernel := func() (*kernel.Kernel, error) {
		return kernel.New(kernel.Config{NumCPUs: 4, Seed: seed, KASLR: kernel.KASLRFull64})
	}
	vulnerable := func() *kcc.Module {
		m := &kcc.Module{Name: "vuln"}
		m.AddFunc("vuln_ioctl", true, vulnBody()...)
		return m
	}

	kv, err := mkKernel()
	if err != nil {
		return rep, err
	}
	objV, err := kcc.Compile(vulnerable(), kcc.Options{Model: kcc.ModelPIC})
	if err != nil {
		return rep, err
	}
	modV, err := kv.Load(objV)
	if err != nil {
		return rep, err
	}
	rep.JITROPVanilla = attack.SimulateJITROP(kv, modV, attack.DefaultJITROP, 0, nil)

	kd, err := mkKernel()
	if err != nil {
		return rep, err
	}
	objD, err := drivers.Build(vulnerable(), drivers.BuildOpts{PIC: true, Rerand: true})
	if err != nil {
		return rep, err
	}
	modD, err := kd.Load(objD)
	if err != nil {
		return rep, err
	}
	rep.JITROPDefended = attack.SimulateJITROP(kd, modD, attack.DefaultJITROP, 5_000, func() error {
		if _, err := modD.Rerandomize(); err != nil {
			return err
		}
		kd.SMR.Flush()
		return nil
	})
	rep.AttackMicros = rep.JITROPDefended.ElapsedMicros
	return rep, nil
}

var expSecurity = &Experiment{
	Name:   "security",
	Figure: "§6",
	Doc:    "security analysis: guess probability, brute force, JIT-ROP race",
	ParamSpecs: []ParamSpec{
		{Name: "seed", Doc: "victim kernel seed (brute-force RNG derives from it)", Default: seedSecurity},
	},
	Run: func(p Params) (*Table, error) {
		rep, err := securityAnalysis(p.Int64("seed"))
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: "§6 — security analysis",
			Columns: []Column{
				Col("metric", "%-28s", "%-28s"),
				Col("value", "%v", "%s"),
			},
		}
		t.AddRow("vanilla-guess-prob", rep.VanillaGuessProb)
		t.AddRow("full64-guess-prob", rep.Full64GuessProb)
		t.AddRow("vanilla-bruteforce-found", rep.VanillaBruteForce.Found)
		t.AddRow("vanilla-bruteforce-attempts", rep.VanillaBruteForce.Attempts)
		t.AddRow("full64-bruteforce-found", rep.Full64BruteForce.Found)
		t.AddRow("full64-bruteforce-attempts", rep.Full64BruteForce.Attempts)
		t.AddRow("attack-micros", rep.AttackMicros)
		t.AddRow("jitrop-vanilla-success", rep.JITROPVanilla.Succeeded)
		t.AddRow("jitrop-vanilla-reason", rep.JITROPVanilla.Reason)
		t.AddRow("jitrop-defended-success", rep.JITROPDefended.Succeeded)
		t.AddRow("jitrop-defended-reason", rep.JITROPDefended.Reason)
		// The historical report is free-form prose; keep it bit-identical.
		t.Text = []string{
			fmt.Sprintf("guess probability     vanilla 2^-19 = %.3g   Adelie 2^-44 = %.3g",
				rep.VanillaGuessProb, rep.Full64GuessProb),
			"brute force (8-page module, ≤4M probes):",
			fmt.Sprintf("  vanilla window: found=%v after %d attempts",
				rep.VanillaBruteForce.Found, rep.VanillaBruteForce.Attempts),
			fmt.Sprintf("  64-bit window:  found=%v after %d attempts",
				rep.Full64BruteForce.Found, rep.Full64BruteForce.Attempts),
			fmt.Sprintf("JIT-ROP (attack ≈ %.0f µs end-to-end):", rep.AttackMicros),
			fmt.Sprintf("  no re-randomization: success=%v (%s)",
				rep.JITROPVanilla.Succeeded, rep.JITROPVanilla.Reason),
			fmt.Sprintf("  5 ms period:         success=%v (%s)",
				rep.JITROPDefended.Succeeded, rep.JITROPDefended.Reason),
		}
		return t, nil
	},
	Headline: func(t *Table) map[string]float64 {
		out := map[string]float64{}
		for _, r := range t.Rows {
			switch v := r[1].(type) {
			case bool:
				if v {
					out[r[0].(string)] = 1
				} else {
					out[r[0].(string)] = 0
				}
			case int:
				out[r[0].(string)] = float64(v)
			}
		}
		return out
	},
}

// vulnBody is a buffer-handling entry with the usual pop-rich epilogue.
func vulnBody() []kcc.Ins {
	return []kcc.Ins{
		kcc.Push(isa.RDX),
		kcc.Push(isa.RSI),
		kcc.Push(isa.RDI),
		kcc.MovImm(isa.RAX, 0),
		kcc.Pop(isa.RDI),
		kcc.Pop(isa.RSI),
		kcc.Pop(isa.RDX),
		kcc.Ret(),
	}
}
