package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: hammer a running adelie-simd with many concurrent
// /v1/run requests over a pool of worker connections and report
// throughput and tail latency — the stress_test companion the lease
// servers in related lease-server projects ship. cmd/simload is the CLI
// wrapper.

// LoadOpts configures one load run.
type LoadOpts struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8787".
	BaseURL string
	// Experiment and Params form the request every worker posts.
	Experiment string
	Params     map[string]string
	Quick      bool
	// Requests is the total request count; Concurrency the number of
	// workers issuing them (each worker = one in-flight request).
	Requests    int
	Concurrency int
	// Timeout is the per-request client timeout (default 5m — queue
	// waits behind a small pool are part of the measurement).
	Timeout time.Duration
}

// LoadReport is the aggregate result of one load run.
type LoadReport struct {
	Requests     int         `json:"requests"`
	OK           int         `json:"ok"`
	Failed       int         `json:"failed"`
	StatusCounts map[int]int `json:"status_counts"`
	ElapsedUs    float64     `json:"elapsed_us"`
	RPS          float64     `json:"rps"`
	RPSPerCore   float64     `json:"rps_per_core,omitempty"` // filled by callers that know core count
	P50Us        float64     `json:"p50_us"`
	P99Us        float64     `json:"p99_us"`
	// QueueWaitP50Us/P99Us split the lease queue wait out of the service
	// latency above (reported by the daemon per-response in the
	// X-Adelie-Queue-Wait-Us header): they isolate "waiting for a pool
	// slot" from "running the experiment".
	QueueWaitP50Us float64 `json:"queue_wait_p50_us"`
	QueueWaitP99Us float64 `json:"queue_wait_p99_us"`
	// FirstError carries one representative failure body for diagnosis.
	FirstError string `json:"first_error,omitempty"`
}

// RunLoad issues opts.Requests POST /v1/run calls from opts.Concurrency
// workers and aggregates latency and status counts. Transport-level
// failures count as Failed with status 0.
func RunLoad(opts LoadOpts) (*LoadReport, error) {
	if opts.Requests <= 0 || opts.Concurrency <= 0 {
		return nil, fmt.Errorf("loadgen: requests (%d) and concurrency (%d) must be positive", opts.Requests, opts.Concurrency)
	}
	if opts.Concurrency > opts.Requests {
		opts.Concurrency = opts.Requests
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Minute
	}
	params := make(map[string]any, len(opts.Params))
	for k, v := range opts.Params {
		params[k] = v
	}
	body, err := json.Marshal(RunRequest{Experiment: opts.Experiment, Params: params, Quick: opts.Quick})
	if err != nil {
		return nil, err
	}
	url := opts.BaseURL + "/v1/run"
	client := &http.Client{
		Timeout: opts.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        opts.Concurrency,
			MaxIdleConnsPerHost: opts.Concurrency,
		},
	}

	type workerStats struct {
		lats     []float64
		qlats    []float64
		statuses map[int]int
		firstErr string
	}
	perWorker := make([]workerStats, opts.Concurrency)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(ws *workerStats) {
			defer wg.Done()
			ws.statuses = map[int]int{}
			for {
				if int(next.Add(1)) > opts.Requests {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					ws.statuses[0]++
					if ws.firstErr == "" {
						ws.firstErr = err.Error()
					}
					continue
				}
				b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				ws.statuses[resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					ws.lats = append(ws.lats, float64(time.Since(t0).Nanoseconds())/1e3)
					if qw, err := strconv.ParseFloat(resp.Header.Get("X-Adelie-Queue-Wait-Us"), 64); err == nil {
						ws.qlats = append(ws.qlats, qw)
					}
				} else if ws.firstErr == "" {
					ws.firstErr = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
				}
			}
		}(&perWorker[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Requests:     opts.Requests,
		StatusCounts: map[int]int{},
		ElapsedUs:    float64(elapsed.Nanoseconds()) / 1e3,
	}
	var lats, qlats []float64
	for i := range perWorker {
		ws := &perWorker[i]
		lats = append(lats, ws.lats...)
		qlats = append(qlats, ws.qlats...)
		for code, n := range ws.statuses {
			rep.StatusCounts[code] += n
		}
		if rep.FirstError == "" {
			rep.FirstError = ws.firstErr
		}
	}
	rep.OK = rep.StatusCounts[http.StatusOK]
	rep.Failed = rep.Requests - rep.OK
	if elapsed > 0 {
		rep.RPS = float64(rep.OK) / elapsed.Seconds()
	}
	sort.Float64s(lats)
	rep.P50Us = percentile(lats, 50)
	rep.P99Us = percentile(lats, 99)
	sort.Float64s(qlats)
	rep.QueueWaitP50Us = percentile(qlats, 50)
	rep.QueueWaitP99Us = percentile(qlats, 99)
	return rep, nil
}
