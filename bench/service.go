package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adelie/internal/service"
	"adelie/internal/workload"
)

// service-open: an in-process fleet service on a loopback listener.
// Open-loop fig9 requests at a fixed rate (about a third of its measured
// closed-loop capacity on a 2-core host), then a closed loop on every
// connection for capacity. It is the only workload that runs HTTP/JSON,
// leases and per-request forks from a long-lived pool.
const (
	svcPool   = 2
	svcConns  = 2
	svcRate   = 300.0 // open-loop arrivals per second
	svcOps    = 50    // fig9 ioctls per variant per request
	svcWarmup = 8     // requests after the pool's first boot
	openShare = 2.0 / 3

	noopRate = 1000.0 // no-op phase arrivals per second
)

// runLog records when the service ran each request's experiment, keyed by
// the request's "req" parameter.
type runLog struct {
	mu sync.Mutex
	at map[int64][2]time.Time
}

func newRunLog() *runLog { return &runLog{at: map[int64][2]time.Time{}} }

func (l *runLog) record(p workload.Params, start, end time.Time) {
	l.mu.Lock()
	l.at[p.Int64("req")] = [2]time.Time{start, end}
	l.mu.Unlock()
}

func (l *runLog) get(id int64) ([2]time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.at[id]
	return t, ok
}

// reqParam names a request, so the service-side run can be matched to
// the client-side request.
var reqParam = []workload.ParamSpec{{Name: "req", Doc: "benchmark request id"}}

// noopExperiment costs nothing to run: requests for it measure the
// service's own HTTP, JSON and lease overhead.
var noopExperiment = &workload.Experiment{
	Name: "noop", Figure: "-", Doc: "returns an empty table",
	Run: func(workload.Params) (*workload.Table, error) { return &workload.Table{Title: "noop"}, nil },
}

// svcHarness is an in-process service on a loopback listener and the
// client that drives it with at most svcConns connections.
type svcHarness struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	nextID atomic.Int64
}

func startService(reg *workload.Registry) (*svcHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Registry: reg, PoolSize: svcPool})
	h := &svcHarness{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns}},
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the listener, drains the service and releases its pool.
func (h *svcHarness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Client side first: a connection the transport dialed but never used
	// counts as busy to Shutdown for its first 5 s.
	h.client.CloseIdleConnections()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := h.svc.Drain(ctx); err == nil {
		err = derr
	}
	h.svc.Close()
	return err
}

// ids reserves n consecutive request ids and returns the first.
func (h *svcHarness) ids(n int) int64 { return h.nextID.Add(int64(n)) - int64(n) }

// post sends one POST /v1/run and returns the status and the reply's
// table, byte for byte.
func (h *svcHarness) post(req service.RunRequest) (int, json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.client.Post(h.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	var rep struct {
		Table json.RawMessage `json:"table"`
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(b, &rep)
	}
	return resp.StatusCode, rep.Table, err
}

// runRequest is request id's body: fig9 at svcOps and the run's seed, or
// the no-op experiment.
func runRequest(exp string, seed, id int64, trace bool) service.RunRequest {
	p := map[string]any{"req": id}
	if exp != noopExperiment.Name {
		p["ops"], p["seed"] = svcOps, seed
	}
	return service.RunRequest{Experiment: exp, Params: p, Quick: true, Trace: trace}
}

// schedule returns the due times, as offsets from the start, of
// arrivals at a constant rate per second over secs, the first at a
// seed-derived phase within one interval. Poisson arrivals made the tail
// a property of each seed's bursts queued behind two connections (A/A
// spread of op_p99_us 27% against 5% at a constant rate; see README).
func schedule(seed int64, rate, secs float64) []time.Duration {
	gap := 1 / rate
	var out []time.Duration
	for t := rand.New(rand.NewSource(seed)).Float64() * gap; t < secs; t += gap {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openResult is what an open-loop phase saw, per scheduled request.
type openResult struct {
	start time.Time
	lat   []time.Duration // completion minus due time
	late  []time.Duration // how late the generator handed the request to a connection
	sent  []time.Time     // when a connection began sending it
	conn  []int
}

// openLoop issues request i at sched[i] after its start, over conns
// connections; do sends request i. A request that finds every connection
// busy waits for one, so its latency, charged from the due time, includes
// the stall.
func openLoop(sched []time.Duration, conns int, do func(i int)) openResult {
	n := len(sched)
	res := openResult{lat: make([]time.Duration, n), late: make([]time.Duration, n), sent: make([]time.Time, n), conn: make([]int, n)}
	// Sized to the schedule so the generator never blocks: a stalled
	// service shows as latency, not as a late generator.
	jobs := make(chan int, n)
	res.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res.sent[i], res.conn[i] = time.Now(), c
				do(i)
				res.lat[i] = time.Since(res.start) - sched[i]
			}
		}()
	}
	for i, due := range sched {
		if d := due - time.Since(res.start); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = time.Since(res.start) - due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedLoop keeps one request in flight per connection for secs, each
// connection sending its next request when the last completes, and
// returns the phase's completions, each retiring insts simulated
// instructions.
func closedLoop(conns int, secs float64, insts uint64, do func()) phase {
	start := time.Now()
	var mu sync.Mutex
	var p phase
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < secs {
				do()
				mu.Lock()
				p.add(event{time.Since(start), 1, insts})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = usf(d)
	}
	return out
}

// client sends fig9 or no-op requests to a harness and checks each
// reply: status 200 and, for fig9, the registered experiment's table
// byte for byte.
type client struct {
	r    *run
	h    *svcHarness
	want json.RawMessage // fig9 reply table; nil for no-op requests
}

func (c *client) send(id int64, trace bool) {
	exp := fig9Name
	if c.want == nil {
		exp = noopExperiment.Name
	}
	c.r.attempt(1)
	status, table, err := c.h.post(runRequest(exp, c.r.seed, id, trace))
	c.r.mem.sample()
	switch {
	case err != nil:
		c.r.problem(1, "request %d: %v", id, err)
	case status != http.StatusOK:
		c.r.problem(1, "request %d: HTTP %d", id, status)
	case c.want != nil && !bytes.Equal(table, c.want):
		c.r.problem(1, "request %d: table differs from fig9's own run", id)
	}
}

// open runs an open-loop phase at rate for secs, returning what it saw,
// its schedule and the id of its first request.
func (c *client) open(rate, secs float64) (openResult, []time.Duration, int64) {
	sched := schedule(c.r.seed, rate, secs)
	base := c.h.ids(len(sched))
	return openLoop(sched, svcConns, func(i int) { c.send(base+int64(i), false) }), sched, base
}

// openPhase is an open-loop phase of secs as a latency phase: each
// request's latency stamped with its due time.
func openPhase(o openResult, sched []time.Duration, secs float64) phase {
	p := phase{wall: time.Duration(secs * float64(time.Second))}
	for i, due := range sched {
		p.lat = append(p.lat, stamp{due, usf(o.lat[i])})
	}
	return p
}

const fig9Name = "fig9"

// requestSplit derives, for an open-loop phase, each request's time
// before its experiment ran (HTTP, JSON decode and lease queue) and the
// run itself, and records client and run spans.
func requestSplit(r *run, log *runLog, o openResult, base int64, sched []time.Duration, parent uint64) (pre, runUs []float64) {
	for i := range o.sent {
		at, ok := log.get(base + int64(i))
		if !ok {
			continue
		}
		pre = append(pre, usf(at[0].Sub(o.sent[i])))
		runUs = append(runUs, usf(at[1].Sub(at[0])))
		done := o.start.Add(sched[i] + o.lat[i])
		id := r.rec.add("service", "POST /v1/run", 1+o.conn[i], parent, 0, o.sent[i], done)
		r.rec.add("workload", "Experiment.Run", 1+o.conn[i], id, id, at[0], at[1])
	}
	return pre, runUs
}

// noopPhase measures the service's fixed per-request cost with open-loop
// no-op requests at noopRate, and returns the open loop's timings.
func noopPhase(r *run, h *svcHarness, log *runLog, parent uint64) (pre, runUs, late []float64) {
	o, sched, base := (&client{r: r, h: h}).open(noopRate, tracedNoop*r.seconds)
	// Charged from the send, not the due time: this phase measures the
	// service's fixed cost, not the generator's timer granularity.
	lat := make([]float64, len(sched))
	for i := range lat {
		lat[i] = usf(o.start.Add(sched[i] + o.lat[i]).Sub(o.sent[i]))
	}
	r.set("service.noop_p50_us", median(lat), len(lat), lat)
	r.set("service.noop_p99_us", tail(lat), len(lat), lat)
	pre, runUs = requestSplit(r, log, o, base, sched, parent)
	return pre, runUs, durationsUs(o.late)
}

// reportService sets the service metrics of an open-loop phase.
func reportService(r *run, pre, runUs, late []float64) {
	r.set("service.pre_run_p50_us", median(pre), len(pre), pre)
	r.set("service.pre_run_p99_us", tail(pre), len(pre), pre)
	r.set("service.run_p50_us", median(runUs), len(runUs), runUs)
	r.set("service.gen_late_p99_us", tail(late), len(late), late)
}

// noopProbe measures the service layer for workloads that do not run it:
// a service with only the no-op experiment registered.
func noopProbe(r *run, parent uint64) error {
	log := newRunLog()
	h, err := startService(workload.NewRegistry(timedExperiment(noopExperiment, reqParam, log.record)))
	if err != nil {
		return err
	}
	pre, runUs, late := noopPhase(r, h, log, parent)
	reportService(r, pre, runUs, late)
	return h.close()
}

func runService(r *run) error {
	fig9, err := experiment(fig9Name)
	if err != nil {
		return err
	}
	ref, err := registryRun(fig9Name, true, fmt.Sprintf("ops=%d", svcOps), fmt.Sprintf("seed=%d", r.seed))
	if err != nil {
		return err
	}
	want, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	rig, err := newIoctlRig(r.seed)
	if err != nil {
		return err
	}
	defer rig.release()
	instsPerReq, err := rig.verify(ref, svcOps, nil)
	if err != nil {
		r.problem(1, "%v", err)
	}
	dg := newDigest()
	dg.add("fig9 table %s", want)
	dg.add("fig9 insts %d", instsPerReq)
	r.checkDigest(dg)

	// Untraced runs time nothing inside the service.
	var log *runLog
	var onRun func(workload.Params, time.Time, time.Time)
	if r.traced() {
		log = newRunLog()
		onRun = log.record
	}
	reg := workload.NewRegistry(timedExperiment(fig9, reqParam, onRun), timedExperiment(noopExperiment, reqParam, onRun))
	var c *client
	setup := func() error {
		h, err := startService(reg)
		if err != nil {
			return err
		}
		c = &client{r: r, h: h, want: want}
		for i := 0; i < svcWarmup; i++ {
			c.send(h.ids(1), false)
		}
		return nil
	}
	closeService := func() error { return c.h.close() }
	if !r.traced() {
		return r.segmented(setup, func(secs float64) error {
			o, sched, _ := c.open(svcRate, openShare*secs)
			open := openPhase(o, sched, openShare*secs)
			r.latWin = append(r.latWin, open.windows(latWindow)...)
			capacity := closedLoop(svcConns, (1-openShare)*secs, instsPerReq, func() { c.send(c.h.ids(1), false) })
			r.rateWin = append(r.rateWin, capacity.windows(rateWindow)...)
			return nil
		}, closeService)
	}
	if err := setup(); err != nil {
		return err
	}
	err = tracedService(r, c, log, rig, ref)
	if cerr := closeService(); err == nil {
		err = cerr
	}
	return err
}

// tracedService is service-open's traced run: an untraced open-loop
// baseline, paired traced/untraced requests for the simulator's own
// tracing cost, a timed open loop whose requests are split into pre-run
// and run time, a no-op phase, and the composed fig9 points for the cpu,
// engine and mm layers.
func tracedService(r *run, c *client, log *runLog, rig *ioctlRig, ref *workload.Table) error {
	root := r.rec.start("bench", "measure", 0, 0, 0)
	base, _, _ := c.open(svcRate, tracedBaseline*r.seconds)
	baseLat := durationsUs(base.lat)

	overhead, pairs, err := obsPairs(tracedObs*r.seconds, func(traced bool) error {
		c.send(c.h.ids(1), traced)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("obs.trace_overhead_pct", overhead, pairs, nil)

	pool0, rt0 := workload.ForkPoolStats(), readRuntime()
	o, sched, idBase := c.open(svcRate, tracedTimed*r.seconds)
	wall := time.Since(o.start)
	pool1 := workload.ForkPoolStats()
	r.reportRuntime(rt0, readRuntime(), len(sched))
	lat := durationsUs(o.lat)
	pre, runUs := requestSplit(r, log, o, idBase, sched, root.id())
	reportService(r, pre, runUs, durationsUs(o.late))
	r.set("bench.trace_overhead_pct", 100*(median(lat)/median(baseLat)-1), len(lat), nil)
	pointMs := make([]float64, len(runUs))
	for i, v := range runUs {
		pointMs[i] = v / 1e3
	}
	r.set("workload.point_ms", median(pointMs), len(pointMs), pointMs)
	r.set("workload.worker_busy_pct", pct(sum(runUs), svcPool*usf(wall)), len(runUs), nil)
	r.set("sim.forks_per_op", float64(pool1.Forks-pool0.Forks)/float64(len(sched)), len(sched), nil)
	r.set("sim.cold_boots", float64(pool1.ColdBoots-pool0.ColdBoots), len(sched), nil)
	root.end()

	sp := r.rec.start("bench", "probes", 0, 0, 0)
	defer sp.end()
	noopPhase(r, c.h, log, sp.id())
	acc := &layerAcc{}
	if err := rig.replicaLayers([]int64{svcOps}, tracedReplica*r.seconds, acc); err != nil {
		return err
	}
	acc.report(r)
	renderProbe(r, ref)
	return probeSim(r, fig9Shape(r.seed), sp.id())
}
