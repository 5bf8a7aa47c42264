// Package service is the fleet-scale simulation service behind
// cmd/adelie-simd: a long-running daemon owning a pool of snapshot-forked
// machines and serving experiment requests over HTTP/JSON.
//
// The shape follows the lease-based allocation servers the roadmap names
// (flextape/allocation_manager/machinist) and QCDSP's replicated-node
// lesson — serve many concurrent experiments with a fleet of cheap forked
// machines, not one big one:
//
//   - machine pool: per-(config, seed, queues, drivers) frozen Snapshot()
//     templates, lazily booted on first use of each shape, every request
//     served by a ~200µs copy-on-write Fork() that is bit-identical to a
//     cold boot (workload's fork pool — the same path -parallel sweeps
//     use — held enabled for the service's lifetime);
//   - lease manager: a bounded FIFO request queue in front of a bounded
//     set of live forks, per-request deadlines while queued, a TTL on
//     running leases with revocation of abandoned machines, and a
//     graceful drain that completes every admitted request;
//   - HTTP/JSON API: POST /v1/run and /v1/sweep produce the registry's
//     Table JSON exactly as `benchtool run` does (the same override
//     resolution path, so default/quick/range semantics cannot drift),
//     GET /v1/experiments lists the registry, /v1/healthz and /v1/statsz
//     report liveness and pool/queue/latency/throughput counters.
//
// The load generator in loadgen.go (cmd/simload) closes the loop: it
// hammers a running daemon with thousands of concurrent requests and
// reports rps and tail latency.
package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"adelie/internal/workload"
)

// Config sizes one service instance.
type Config struct {
	// Registry is the experiment registry to serve; nil means the full
	// evaluation registry (workload.Experiments).
	Registry *workload.Registry
	// PoolSize bounds concurrently leased machines (live forks running
	// experiments). Default 4.
	PoolSize int
	// QueueCap bounds the FIFO wait queue; requests past it are shed
	// with 503. Default 1024.
	QueueCap int
	// LeaseTTL revokes a running lease that exceeds it: the pool slot
	// returns immediately, the late result is discarded. Default 2m.
	LeaseTTL time.Duration
	// RequestTimeout caps how long a request may wait in the queue
	// before giving up with 504. Default 5m.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = workload.Experiments
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	return c
}

// Service is one running instance: pool + lease manager + handlers.
type Service struct {
	cfg    Config
	reg    *workload.Registry
	leases *leaseMgr
	stats  *statsCollector
	closed bool
}

// New builds a service and enables the machine pool: from here until
// Close, every machine an experiment boots is a copy-on-write fork of a
// lazily-booted frozen template of that machine shape.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	workload.EnableForkPool()
	return &Service{
		cfg:    cfg,
		reg:    cfg.Registry,
		leases: newLeaseMgr(cfg.PoolSize, cfg.QueueCap, cfg.LeaseTTL),
		stats:  newStatsCollector(),
	}
}

// StatsNow snapshots the statsz counters.
func (s *Service) StatsNow() Stats {
	return s.stats.snapshot(s.leases, s.cfg.PoolSize, s.cfg.QueueCap)
}

// BeginDrain stops admitting new requests (healthz flips to draining,
// run/sweep answer 503). Queued and running requests keep going.
func (s *Service) BeginDrain() { s.leases.beginDrain() }

// Drain gracefully shuts the service down: stop admissions, then wait
// until every admitted request — queued or running — has completed, or
// ctx expires (the in-flight count at expiry is in the error). No
// admitted request is lost by a drain that returns nil.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	for !s.leases.drainDone() {
		select {
		case <-ctx.Done():
			queueDepth, inFlight, _, _, _, _, _ := s.leases.snapshot()
			return fmt.Errorf("service: drain timed out with %d running and %d queued", inFlight, queueDepth)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Close releases the service's resources: the lease janitor stops and
// the machine pool's templates are released. Call after Drain.
func (s *Service) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.leases.close()
	workload.DisableForkPool()
}

// Handler returns the HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /v1/metricsz", s.handleMetricsz)
	return mux
}
