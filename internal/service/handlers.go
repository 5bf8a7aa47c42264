package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"adelie/internal/obs"
	"adelie/internal/workload"
)

// RunRequest is the POST /v1/run (and /v1/sweep) body: an experiment
// name, optional -p-style parameter overrides, and the quick flag.
// Param values may be JSON numbers or strings; a string may use the
// range syntax "lo..hi[:step]" — rejected by /v1/run, required (on
// exactly one param) by /v1/sweep.
type RunRequest struct {
	Experiment string         `json:"experiment"`
	Params     map[string]any `json:"params,omitempty"`
	Quick      bool           `json:"quick,omitempty"`

	// Trace asks /v1/run to record the run's deterministic event trace
	// and attach it to the reply as Chrome trace_event JSON. Traced
	// requests serialize on the daemon's exclusive observability session;
	// machines booted by concurrently running untraced requests join the
	// trace too (the fleet-wide view).
	Trace bool `json:"trace,omitempty"`

	// Sweep-only knobs. Parallel defaults to true (fan the points across
	// the pool on fork-served boots); false is the serial reference
	// mode. Workers 0 means the pool size.
	Parallel *bool `json:"parallel,omitempty"`
	Workers  int   `json:"workers,omitempty"`
}

// RunReply is one experiment result: the same name/params/table record
// `benchtool -json` emits per experiment, so a Table served over HTTP
// marshals byte-identically to the CLI's for identical params.
type RunReply struct {
	Name      string           `json:"name"`
	Params    map[string]int64 `json:"params"`
	Table     *workload.Table  `json:"table"`
	ElapsedUs float64          `json:"elapsed_us,omitempty"`

	// Trace is the run's Chrome trace_event JSON when the request set
	// "trace": true (already-marshaled bytes; byte-deterministic for a
	// given experiment and params).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// SweepReply is the POST /v1/sweep result: one RunReply per point.
type SweepReply struct {
	Name      string     `json:"name"`
	Param     string     `json:"param"`
	Points    []RunReply `json:"points"`
	ElapsedUs float64    `json:"elapsed_us,omitempty"`
}

// ErrorReply is every non-2xx body.
type ErrorReply struct {
	Error      string   `json:"error"`
	Suggestion string   `json:"suggestion,omitempty"`
	Registered []string `json:"registered,omitempty"`
}

// maxBodyBytes bounds a request body read.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorReply{Error: fmt.Sprintf(format, args...)})
}

// overrideStrings converts a JSON params map into sorted "key=val"
// override pairs for the shared resolution path. Numbers must be
// integral; strings pass through untouched (range syntax included).
func overrideStrings(params map[string]any) ([]string, error) {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		switch v := params[k].(type) {
		case string:
			out = append(out, k+"="+v)
		case float64:
			if v != math.Trunc(v) {
				return nil, fmt.Errorf("parameter %q: %v is not an integer", k, v)
			}
			out = append(out, k+"="+strconv.FormatInt(int64(v), 10))
		case json.Number:
			out = append(out, k+"="+v.String())
		default:
			return nil, fmt.Errorf("parameter %q: value must be an integer or a string", k)
		}
	}
	return out, nil
}

// resolved is one decoded, validated request: the experiment, its
// resolved params, and the (at most one) sweep range.
type resolved struct {
	req         RunRequest
	exp         *workload.Experiment
	params      workload.Params
	sweepParam  string
	sweepValues []int64
}

// decodeRequest reads and validates the request body, resolving the
// experiment and its overrides through the same workload path
// benchtool's -p flags use. On failure the response is already written.
func (s *Service) decodeRequest(w http.ResponseWriter, r *http.Request) (resolved, bool) {
	var res resolved
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&res.req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return res, false
	}
	if res.req.Experiment == "" {
		writeError(w, http.StatusBadRequest, "missing experiment name")
		return res, false
	}
	exp, ok := s.reg.Lookup(res.req.Experiment)
	if !ok {
		rep := ErrorReply{
			Error:      fmt.Sprintf("unknown experiment %q", res.req.Experiment),
			Suggestion: s.reg.Suggest(res.req.Experiment),
			Registered: s.reg.Names(),
		}
		if rep.Suggestion != "" {
			rep.Error += fmt.Sprintf("; did you mean %q?", rep.Suggestion)
		}
		writeJSON(w, http.StatusNotFound, rep)
		return res, false
	}
	res.exp = exp
	ovs, err := overrideStrings(res.req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s: %v", exp.Name, err)
		return res, false
	}
	res.params, res.sweepParam, res.sweepValues, err = exp.ResolveOverrides(res.req.Quick, ovs, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s: %v", exp.Name, err)
		return res, false
	}
	return res, true
}

// acquire leases a pool slot, mapping queue-full/draining/timeout to
// HTTP statuses. The returned lease is non-nil exactly when ok.
func (s *Service) acquire(w http.ResponseWriter, r *http.Request) (*lease, bool) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	l, err := s.leases.Acquire(ctx)
	switch {
	case err == nil:
		return l, true
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "request queue full (cap %d, pool %d)", s.cfg.QueueCap, s.cfg.PoolSize)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new requests")
	default:
		writeError(w, http.StatusGatewayTimeout, "timed out after %s waiting for a machine lease", s.cfg.RequestTimeout)
	}
	return nil, false
}

// finishLeased closes out a leased run: on TTL revocation the result is
// discarded (capacity already went back to the queue, and a caller past
// the TTL plausibly abandoned the request), otherwise respond 200.
func (s *Service) finishLeased(w http.ResponseWriter, l *lease, start time.Time, name string, reply func(elapsed time.Duration) any) {
	if l.Revoked() {
		s.stats.done(time.Since(start), false)
		writeError(w, http.StatusGatewayTimeout,
			"%s: lease TTL (%s) exceeded; machine revoked, result discarded", name, s.cfg.LeaseTTL)
		return
	}
	elapsed := time.Since(start)
	s.stats.done(elapsed, true)
	writeJSON(w, http.StatusOK, reply(elapsed))
}

// contained runs a leased experiment, returning a panic in it as an
// error. Left to net/http, the panic would drop the connection with no
// answer; recovered, the request fails alone with a 500 that names the
// experiment, and its deferred lease release and stats run as for any
// failed run. A parallel sweep already recovers each point's panic on
// its worker; this covers the handler goroutine.
func contained[T any](run func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run()
}

// handleRun serves POST /v1/run: one experiment, one Table.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	res, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if res.sweepParam != "" {
		writeError(w, http.StatusBadRequest,
			"%s: parameter %q is a range; POST /v1/sweep runs one table per point", res.exp.Name, res.sweepParam)
		return
	}
	l, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer l.Release()
	s.stats.admitted(l.Waited())
	w.Header().Set("X-Adelie-Queue-Wait-Us", strconv.FormatInt(l.Waited().Microseconds(), 10))
	var traceJSON json.RawMessage
	run := func() (*workload.Table, error) { return res.exp.Run(res.params) }
	if res.req.Trace {
		run = func() (*workload.Table, error) {
			sess, end := workload.BeginObs(true, false)
			defer end() // a panicking run must still close the session
			tab, err := res.exp.Run(res.params)
			if err == nil {
				var buf bytes.Buffer
				if werr := sess.Trace.WriteJSON(&buf); werr != nil {
					return nil, werr
				}
				traceJSON = buf.Bytes()
			}
			return tab, err
		}
	}
	tab, err := contained(run)
	if err != nil {
		s.stats.done(time.Since(start), false)
		writeError(w, http.StatusInternalServerError, "%s: %v", res.exp.Name, err)
		return
	}
	s.finishLeased(w, l, start, res.exp.Name, func(elapsed time.Duration) any {
		return RunReply{
			Name: res.exp.Name, Params: res.params.Map(), Table: tab,
			ElapsedUs: float64(elapsed.Nanoseconds()) / 1e3,
			Trace:     traceJSON,
		}
	})
}

// handleSweep serves POST /v1/sweep: one experiment, one range param,
// one Table per point — PR 6's sweep runner fanned across the pool on
// fork-served boots, under a single lease.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	res, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if res.sweepParam == "" {
		writeError(w, http.StatusBadRequest,
			"%s: sweep needs exactly one range-valued param (\"lo..hi[:step]\")", res.exp.Name)
		return
	}
	parallel := res.req.Parallel == nil || *res.req.Parallel
	workers := res.req.Workers
	if workers <= 0 || workers > s.cfg.PoolSize {
		workers = s.cfg.PoolSize
	}
	l, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer l.Release()
	s.stats.admitted(l.Waited())
	w.Header().Set("X-Adelie-Queue-Wait-Us", strconv.FormatInt(l.Waited().Microseconds(), 10))
	pts, err := contained(func() ([]workload.SweepPoint, error) {
		return workload.RunSweep(res.exp, res.params, res.sweepParam, res.sweepValues, parallel, workers)
	})
	if err != nil {
		s.stats.done(time.Since(start), false)
		writeError(w, http.StatusInternalServerError, "%s: %v", res.exp.Name, err)
		return
	}
	points := make([]RunReply, 0, len(pts))
	for _, pt := range pts {
		pp := res.params.Clone()
		if err := pp.Set(pt.Param, pt.Value); err != nil {
			s.stats.done(time.Since(start), false)
			writeError(w, http.StatusInternalServerError, "%s: %v", res.exp.Name, err)
			return
		}
		points = append(points, RunReply{Name: res.exp.Name, Params: pp.Map(), Table: pt.Table})
	}
	s.finishLeased(w, l, start, res.exp.Name, func(elapsed time.Duration) any {
		return SweepReply{
			Name: res.exp.Name, Param: res.sweepParam, Points: points,
			ElapsedUs: float64(elapsed.Nanoseconds()) / 1e3,
		}
	})
}

// handleExperiments serves GET /v1/experiments: the registry listing —
// names, figures, docs and ParamSpecs (defaults + quick values).
func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []*workload.Experiment `json:"experiments"`
	}{s.reg.All()})
}

// handleHealthz serves GET /v1/healthz.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.StatsNow().Draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatsz serves GET /v1/statsz.
func (s *Service) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsNow())
}

// handleMetricsz serves GET /v1/metricsz: the process-wide obs registry
// in Prometheus text exposition format — engine, bus, kernel, rerand and
// service counters from every layer the run touched.
func (s *Service) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}
