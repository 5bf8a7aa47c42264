package main

import (
	"fmt"
	"slices"
	"time"

	"adelie/internal/workload"
)

// sweep-fork: repeated 16-point fig9 sweeps over ops=25..400:25, fanned
// across two workers with every machine a copy-on-write fork of a
// per-sweep template pool, as benchtool's parallel sweeps run. A point
// takes one to two milliseconds and four ~200 µs forks with their
// write-after-fork detaches are most of it, so sim fork, mm copy-on-write
// and workload fan-out dominate. Each point is one op, timed through a
// wrapped fig9.
const sweepWorkers = 2

var sweepValues = func() []int64 {
	var v []int64
	for ops := int64(25); ops <= 400; ops += 25 {
		v = append(v, ops)
	}
	return v
}()

func runSweep(r *run) error {
	fig9, err := experiment(fig9Name)
	if err != nil {
		return err
	}
	base, _, _, err := fig9.ResolveOverrides(true, []string{fmt.Sprintf("seed=%d", r.seed)}, true)
	if err != nil {
		return err
	}
	// The reference: one serial sweep on cold-booted machines. Every
	// parallel sweep's tables must render identically, and the composed
	// points must reproduce each table.
	serial, err := workload.RunSweep(fig9, base, "ops", sweepValues, false, 0)
	if err != nil {
		return err
	}
	rig, err := newIoctlRig(r.seed)
	if err != nil {
		return err
	}
	defer rig.release()
	dg := newDigest()
	want := make([]string, len(serial))
	var instsPerSweep uint64
	for i, pt := range serial {
		want[i] = render(pt.Table)
		dg.add("%s", want[i])
		insts, err := rig.verify(pt.Table, int(sweepValues[i]), nil)
		if err != nil {
			r.problem(1, "%v", err)
		}
		instsPerSweep += insts
	}
	r.attempt(len(serial))
	dg.add("insts %d", instsPerSweep)
	r.checkDigest(dg)

	// Every sweep times its points through a wrapped fig9: each point is
	// one op. A traced run's timed phase also keeps point and render host
	// times and the fork pool's counters.
	var pointMs, renders []float64
	var forks, coldBoots int64
	sweep := func(acc *layerAcc, obs bool, parent uint64) (batchOut, error) {
		out := batchOut{ops: len(sweepValues), insts: instsPerSweep, lat: make([]float64, len(sweepValues))}
		exp := timedExperiment(fig9, nil, func(p workload.Params, start, end time.Time) {
			ops := p.Int64("ops")
			r.rec.add("workload", fmt.Sprintf("fig9 ops=%d", ops), 100+int(ops/25), parent, parent, start, end)
			// Each point's run writes its own element, and RunSweep
			// returns only after every run.
			out.lat[slices.Index(sweepValues, ops)] = usf(end.Sub(start))
		})
		end := func() {}
		if obs {
			_, end = workload.BeginObs(true, false)
		}
		pool0 := workload.ForkPoolStats()
		pts, err := workload.RunSweep(exp, base, "ops", sweepValues, true, sweepWorkers)
		end()
		if err != nil {
			return out, err
		}
		for i, pt := range pts {
			t0 := time.Now()
			got := render(pt.Table)
			if acc != nil {
				renders = append(renders, usf(time.Since(t0)))
			}
			if got != want[i] {
				r.problem(1, "sweep point ops=%d: table differs from the serial cold-boot sweep", sweepValues[i])
			}
		}
		if acc != nil {
			pool1 := workload.ForkPoolStats()
			forks += pool1.Forks - pool0.Forks
			coldBoots += pool1.ColdBoots - pool0.ColdBoots
			for _, us := range out.lat {
				pointMs = append(pointMs, us/1e3)
			}
		}
		return out, nil
	}
	setup := func() error {
		out, err := sweep(nil, false, 0)
		r.attempt(out.ops)
		return err
	}
	if !r.traced() {
		return r.segmented(setup, r.endToEnd(sweep), nil)
	}
	if err := setup(); err != nil {
		return err
	}
	timed, err := r.tracedBatches(sweep, &layerAcc{})
	if err != nil {
		return err
	}
	r.set("sim.forks_per_op", float64(forks)/float64(timed.ops), timed.ops, nil)
	r.set("sim.cold_boots", float64(coldBoots), timed.ops, nil)
	r.set("workload.point_ms", median(pointMs), len(pointMs), pointMs)
	r.set("workload.render_us", median(renders), len(renders), renders)
	r.set("workload.worker_busy_pct", pct(sum(pointMs)*1e3, sweepWorkers*usf(timed.wall)), len(pointMs), nil)

	sp := r.rec.start("bench", "probes", 0, 0, 0)
	defer sp.end()
	acc := &layerAcc{}
	if err := rig.replicaLayers(sweepValues, tracedReplica*r.seconds, acc); err != nil {
		return err
	}
	acc.report(r)
	if err := probeSim(r, fig9Shape(r.seed), sp.id()); err != nil {
		return err
	}
	return noopProbe(r, sp.id())
}
