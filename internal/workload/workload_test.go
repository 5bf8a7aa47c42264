package workload

import (
	"math"
	"testing"
)

// The workload tests verify the *shape* properties the paper reports —
// who wins, by roughly what factor, where the crossovers fall — using
// small op counts so the suite stays fast. cmd/benchtool runs the full
// sweeps.

func TestModuleSizesPICOverheadIsModest(t *testing.T) {
	rows, err := moduleSizes(seedFig5a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d modules sized", len(rows))
	}
	for _, r := range rows {
		ratio := float64(r.PICBytes) / float64(r.VanillaBytes)
		// Fig. 5a: "the overhead is negligible for all modules" — allow a
		// generous envelope but catch blowups.
		if ratio < 0.5 || ratio > 1.6 {
			t.Errorf("%s: PIC/vanilla size ratio %.2f out of range", r.Module, ratio)
		}
	}
}

func TestDDRetpolineCostAndPICParity(t *testing.T) {
	// Fig. 5b: without retpoline PIC ≈ non-PIC; retpoline costs a bit,
	// slightly more for PIC (PLT stubs on external calls).
	const ops = 400
	get := func(cfg Config) float64 {
		r, err := dd(seedFig5b, cfg, 64, ops)
		if err != nil {
			t.Fatal(err)
		}
		return r.MBps
	}
	vanilla := get(CfgVanilla)
	vanillaRet := get(CfgVanillaRet)
	pic := get(CfgPIC)
	picRet := get(CfgPICRet)

	if d := math.Abs(pic-vanilla) / vanilla; d > 0.03 {
		t.Errorf("PIC vs vanilla (no retpoline) differ by %.1f%%, want ≈identical", d*100)
	}
	if picRet >= pic {
		t.Error("retpoline should cost something on the PIC build")
	}
	if picRet > vanillaRet {
		// PIC pays PLT stubs on kernel calls that vanilla dodges.
		t.Logf("note: picRet %.1f > vanillaRet %.1f (acceptable)", picRet, vanillaRet)
	}
	// The retpoline hit stays small (paper: "slight performance hit").
	if (vanillaRet-picRet)/vanillaRet > 0.15 {
		t.Errorf("PIC+retpoline loses %.1f%% vs vanilla+retpoline; paper shows a slight hit",
			(vanillaRet-picRet)/vanillaRet*100)
	}
}

func TestSysbenchPICParity(t *testing.T) {
	// Fig. 5c: "performance of PIC-enabled and non-PIC systems is nearly
	// identical" (same retpoline setting).
	const ops = 300
	for _, mode := range []string{"seqrd", "rndrd"} {
		v, err := sysbench(seedFig5c, CfgVanillaRet, mode, ops)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sysbench(seedFig5c, CfgPICRet, mode, ops)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(p.MBps-v.MBps) / v.MBps; d > 0.06 {
			t.Errorf("%s: PIC vs vanilla differ by %.1f%%", mode, d*100)
		}
		if mode == "seqrd" {
			continue
		}
		s, err := sysbench(seedFig5c, CfgPICRet, "seqrd", ops)
		if err != nil {
			t.Fatal(err)
		}
		if p.MBps >= s.MBps {
			t.Error("random reads should not beat sequential reads")
		}
	}
}

func TestKernbenchNoSubstantialDifference(t *testing.T) {
	// Fig. 5d: "no substantial difference across different configurations".
	const jobs = 30
	base, err := kernbench(seedFig5d, CfgVanilla, 20, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{CfgVanillaRet, CfgPIC, CfgPICRet} {
		r, err := kernbench(seedFig5d, cfg, 20, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(r.KernelSec-base.KernelSec) / base.KernelSec; d > 0.10 {
			t.Errorf("%s kernel time differs from vanilla by %.1f%%", cfg, d*100)
		}
	}
}

func TestNVMeThroughputUnaffectedByRerandomization(t *testing.T) {
	// Fig. 6: "performance of NVMe storage remains largely unaffected";
	// CPU usage increases only slightly.
	const ops = 600
	rows, err := nvmeSweep(seedFig6, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	linux := rows[0]
	for _, r := range rows[1:] {
		if d := math.Abs(r.MBps-linux.MBps) / linux.MBps; d > 0.08 {
			t.Errorf("%s: throughput differs from Linux by %.1f%%", r.Period, d*100)
		}
	}
	// 1 ms re-randomization costs more randomizer CPU than 5 ms.
	r5, r1 := rows[2], rows[3]
	if r1.RerandPct <= r5.RerandPct {
		t.Errorf("randomizer share at 1 ms (%.4f%%) not above 5 ms (%.4f%%)", r1.RerandPct, r5.RerandPct)
	}
}

func TestOLTPShape(t *testing.T) {
	// Fig. 7: TPS identical across Linux/5ms/1ms; rises with concurrency
	// to a saturation plateau; CPU usage increase below ~2 points.
	const txs = 120
	get := func(p RerandPeriod, vanilla bool, conc int) OLTPRow {
		r, err := oltp(seedFig7, p, vanilla, conc, txs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lin25 := get(PeriodOff, true, 25)
	lin100 := get(PeriodOff, true, 100)
	if lin100.TPS <= lin25.TPS {
		t.Error("TPS should grow with concurrency before saturation")
	}
	r1 := get(Period1ms, false, 100)
	if d := math.Abs(r1.TPS-lin100.TPS) / lin100.TPS; d > 0.05 {
		t.Errorf("1 ms TPS differs from Linux by %.1f%% at c=100", d*100)
	}
	if r1.CPUPct-lin100.CPUPct > 2.0 {
		t.Errorf("CPU usage increase %.2f points, paper reports <2", r1.CPUPct-lin100.CPUPct)
	}
}

func TestApacheShape(t *testing.T) {
	// Fig. 8: throughput unaffected by re-randomization; smaller blocks
	// yield lower MB/s; 20 ms costs less randomizer CPU than 1 ms.
	const reqs = 120
	lin, err := apache(seedFig8, PeriodOff, true, 8192, 100, reqs)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := apache(seedFig8, Period1ms, false, 8192, 100, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(r1.MBps-lin.MBps) / lin.MBps; d > 0.06 {
		t.Errorf("1 ms MB/s differs from Linux by %.1f%%", d*100)
	}
	small, err := apache(seedFig8, Period1ms, false, 512, 100, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if small.MBps >= r1.MBps {
		t.Error("512-byte blocks should deliver less MB/s than 8 KB blocks")
	}
}

func TestIoctlOverheadOrdering(t *testing.T) {
	// Fig. 9: wrappers ≈ −4%, stack re-randomization ≈ −6% more. Check
	// ordering and that each mechanism costs a single-digit percentage.
	const ops = 3000
	rows, err := ioctlSweep(seedFig9, ops)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, r := range rows {
			if r.Variant == name {
				return r.MopsPerSec
			}
		}
		t.Fatalf("variant %s missing", name)
		return 0
	}
	linux := get("linux")
	pic := get("pic")
	wrap := get("wrappers")
	stack := get("wrappers+stack")
	if !(linux >= pic && pic > wrap && wrap > stack) {
		t.Fatalf("ordering violated: linux=%.3f pic=%.3f wrap=%.3f stack=%.3f",
			linux, pic, wrap, stack)
	}
	wrapDrop := (linux - wrap) / linux * 100
	stackDrop := (wrap - stack) / wrap * 100
	if wrapDrop < 1 || wrapDrop > 15 {
		t.Errorf("wrapper drop %.1f%%, paper ≈4%%", wrapDrop)
	}
	if stackDrop < 1 || stackDrop > 15 {
		t.Errorf("stack drop %.1f%%, paper ≈6%%", stackDrop)
	}
	t.Logf("wrapper drop %.1f%% (paper ≈4%%), stack drop %.1f%% (paper ≈6%%)", wrapDrop, stackDrop)
}

func TestGadgetDistributionShape(t *testing.T) {
	// Fig. 10: the immovable part holds a negligible share of a PIC
	// module's gadgets; modules dominate the kernel.
	rows, err := GadgetDistribution(30)
	if err != nil {
		t.Fatal(err)
	}
	byPop := map[string]int{}
	for _, r := range rows {
		byPop[r.Population] = r.Dist.Total()
	}
	if byPop["modules"] <= byPop["kernel"] {
		t.Error("modules should expose more gadgets than the core kernel")
	}
	mov, imm := byPop["pic-movable"], byPop["pic-immovable"]
	if imm*5 > mov {
		t.Errorf("immovable part has %d gadgets vs movable %d; paper: negligible", imm, mov)
	}
}

func TestChainCensusMatchesTable2(t *testing.T) {
	const n = 120
	pic, err := ChainCensus(n, true)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(pic.CleanChain+pic.SideEffectChain) / float64(n)
	if rate < 0.6 || rate > 0.95 {
		t.Errorf("PIC chain rate %.2f, paper ≈0.80", rate)
	}
	plain, err := ChainCensus(n, false)
	if err != nil {
		t.Fatal(err)
	}
	plainRate := float64(plain.CleanChain+plain.SideEffectChain) / float64(n)
	if math.Abs(plainRate-rate) > 0.15 {
		t.Errorf("PIC (%.2f) and non-PIC (%.2f) chain rates should be close", rate, plainRate)
	}
}

func TestScalabilityHeadroom(t *testing.T) {
	// §5.4: the randomizer thread uses ~0.4% of a core at 20 ms for the
	// benchmark module set, and hundreds of modules stay affordable.
	rows, err := scalability(seedScalability, []int{5, 20, 60}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].CPUPct > 2 {
		t.Errorf("5 modules cost %.2f%% of a core, want well under 2%%", rows[0].CPUPct)
	}
	if !(rows[0].CPUPct < rows[1].CPUPct && rows[1].CPUPct < rows[2].CPUPct) {
		t.Error("randomizer cost should grow with module count")
	}
	// Linear extrapolation to 950 modules stays under one core.
	perModule := rows[2].CPUPct / 60
	if est := perModule * 950; est > 100 {
		t.Errorf("950-module estimate %.1f%% exceeds one core", est)
	}
}

func TestSecurityAnalysisReport(t *testing.T) {
	rep, err := securityAnalysis(seedSecurity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VanillaGuessProb != 1.0/(1<<19) || rep.Full64GuessProb != 1.0/(1<<44) {
		t.Fatalf("guess probabilities wrong: %g %g", rep.VanillaGuessProb, rep.Full64GuessProb)
	}
	if !rep.VanillaBruteForce.Found {
		t.Error("brute force should crack the vanilla window")
	}
	if rep.Full64BruteForce.Found {
		t.Error("brute force should fail against the 64-bit window")
	}
	if !rep.JITROPVanilla.Succeeded {
		t.Errorf("JIT-ROP should succeed without re-randomization: %s", rep.JITROPVanilla.Reason)
	}
	if rep.JITROPDefended.Succeeded {
		t.Error("JIT-ROP should fail against a 5 ms period")
	}
}
